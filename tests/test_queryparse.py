"""Query parser + evaluation tests ported from
elastic_query_evaluate_tests.rs / elastic_query_tests.rs semantics."""

import pytest

from probe_ray.queryparse import (
    And,
    Or,
    Term,
    evaluate,
    parse_query,
    plan_query,
)


def idx(plan):
    return plan.term_indices


def match_set(plan, *terms):
    return {plan.term_indices[t] for t in terms}


def test_or_chain_structure():
    ast, _ = parse_query("keywordAlpha OR keywordBeta")
    assert isinstance(ast, Or)


def test_explicit_and():
    ast, _ = parse_query("alpha AND beta")
    assert isinstance(ast, And)


def test_implicit_adjacency_is_or():
    ast, _ = parse_query("alpha beta")
    assert isinstance(ast, Or)


def test_plus_minus_bind_as_and():
    ast, _ = parse_query("alpha -beta")
    assert isinstance(ast, And)
    assert ast.right.excluded
    ast, _ = parse_query("alpha +beta")
    assert isinstance(ast, And)
    assert ast.right.required


def test_quoted_exact_not_tokenized():
    ast, specials = parse_query('"cleanupScopeMappings"')
    assert isinstance(ast, Term) and ast.exact
    assert ast.keywords == ["cleanupScopeMappings"]
    assert "cleanupscopemappings" in specials


def test_excluded_not_tokenized():
    ast, specials = parse_query("alpha -keywordGamma")
    assert ast.right.keywords == ["keywordGamma"]
    assert "keywordgamma" in specials


def test_field_term():
    ast, _ = parse_query("lang:rust")
    assert isinstance(ast, Term) and ast.field == "lang"


def test_namespace_qualified():
    # the qualified identifier is recognized as ONE primary term, then
    # expanded through the tokenizer like any non-exact term
    # (elastic_query.rs:845-864 + :798-808)
    ast, _ = parse_query("std::collections::HashMap")
    assert isinstance(ast, Term)
    # "map" is a programming stop word, so only "hash" (etc.) survive
    assert "hash" in ast.keywords and "map" not in ast.keywords


def test_evaluate_and_or_required_excluded():
    plan, _ = plan_query(["alpha AND beta"])
    ti = idx(plan)
    assert evaluate(plan.ast, match_set(plan, "alpha", "beta"), ti)
    assert not evaluate(plan.ast, match_set(plan, "alpha"), ti)

    plan, _ = plan_query(["alpha OR beta"])
    ti = idx(plan)
    assert evaluate(plan.ast, match_set(plan, "alpha"), ti)
    assert not evaluate(plan.ast, set(), ti)

    # required term must be present even across OR branches (Lucene fix)
    plan, _ = plan_query(["+alpha beta"])
    ti = idx(plan)
    assert evaluate(plan.ast, match_set(plan, "alpha"), ti)
    assert not evaluate(plan.ast, match_set(plan, "beta"), ti)

    plan, _ = plan_query(["alpha -gamma"])
    ti = idx(plan)
    assert evaluate(plan.ast, match_set(plan, "alpha"), ti)
    assert not evaluate(plan.ast, match_set(plan, "alpha", "gamma"), ti)
    # negatives ignored at the early-filter level
    assert evaluate(plan.ast, match_set(plan, "alpha", "gamma"), ti, True)


def test_term_indices_sorted_dedup():
    plan, _ = plan_query(["beta alpha beta"])
    assert list(plan.term_indices) == sorted(plan.term_indices)
    assert plan.term_indices == {"alpha": 0, "beta": 1}


def test_filters_extraction():
    plan, filters = plan_query(["alpha AND lang:rust ext:rs"])
    assert filters.languages == ["rust"]
    assert filters.extensions == ["rs"]
    assert "rust" not in plan.term_indices

    plan, filters = plan_query(['"config.json"'])
    assert plan.is_universal
    assert filters.exact_filenames == ["config.json"]


def test_filters_match_path():
    _, filters = plan_query(["alpha ext:rs"])
    assert filters.matches_path("src/main.rs")
    assert not filters.matches_path("src/main.py")


def test_all_stop_words_empty_keywords():
    plan, _ = plan_query(["the if for"])
    assert plan.term_indices == {}
    assert not evaluate(plan.ast, set(), plan.term_indices)


def test_multi_query_joined_with_and():
    plan, _ = plan_query(["alpha", "beta"])
    assert isinstance(plan.ast, And)


def test_parse_error_fallbacks():
    with pytest.raises(Exception):
        parse_query("!!! ***")


def _term_strategy():
    from hypothesis import strategies as st

    return st.builds(
        lambda kws, kind: Term(kws, None, kind == "required", kind == "excluded"),
        st.lists(st.sampled_from(["alpha", "Beta", "gamma", "delta"]),
                 min_size=0, max_size=2),  # keyword-less terms too
        st.sampled_from(["plain", "required", "excluded"]),
    )


def _ast_strategy():
    from hypothesis import strategies as st

    return st.recursive(
        _term_strategy(),
        lambda sub: st.builds(And, sub, sub) | st.builds(Or, sub, sub),
        max_leaves=6,
    )


def test_vector_evaluator_matches_evaluate_property():
    """make_vector_evaluator(ast, ti, ignore_negatives=b) admits exactly the
    rows evaluate(ast, matched, ti, b) admits, for both values of b, over
    random ASTs (required, excluded, only-excluded and keyword-less terms)
    and random per-row term membership."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from probe_ray.queryparse import is_only_excluded_terms, make_vector_evaluator, walk_terms

    def all_excluded(ast):
        for t in walk_terms(ast):
            t.excluded, t.required = True, False
        return ast

    asts = _ast_strategy() | _ast_strategy().map(all_excluded)

    @given(asts, st.data())
    @settings(max_examples=300, deadline=None)
    def check(ast, data):
        ti = {t: i for i, t in enumerate(sorted(
            {kw for term in walk_terms(ast) for kw in term.lowercase_keywords}))}
        n = data.draw(st.integers(min_value=1, max_value=12))
        bits = np.array(data.draw(st.lists(
            st.booleans(), min_size=n * len(ti), max_size=n * len(ti)
        )), dtype=bool).reshape(n, len(ti))
        members = {t: bits[:, i] for t, i in ti.items()}
        for ignore in (False, True):
            got = make_vector_evaluator(ast, ti, ignore_negatives=ignore)(members, n)
            want = [
                evaluate(ast, {i for t, i in ti.items() if bits[r, i]}, ti, ignore)
                for r in range(n)
            ]
            assert got.tolist() == want, (str(ast), ignore, is_only_excluded_terms(ast))

    check()
