"""Tests for the Levenshtein and address-normalization substrate."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.perf.parallel import ParallelMap
from repro.preprocessing.address_cleaner import AddressCleaner
from repro.text.levenshtein import (
    GazetteerIndex,
    best_match,
    distance,
    distance_within,
    similarity,
    similarity_at_least,
)
from repro.text.normalize import (
    canonical_house_number,
    expand_abbreviations,
    normalize_address,
    split_house_number,
    strip_accents,
)


def _reference_distance(a: str, b: str) -> int:
    """The textbook two-row Levenshtein DP: the oracle for the kernels."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    current = [0] * (len(b) + 1)
    for i, ca in enumerate(a, start=1):
        current[0] = i
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current[j] = min(
                previous[j] + 1,         # deletion
                current[j - 1] + 1,      # insertion
                previous[j - 1] + cost,  # substitution
            )
        previous, current = current, previous
    return previous[len(b)]


class TestReferenceOracle:
    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_distance_equals_reference(self, a, b):
        assert distance(a, b) == _reference_distance(a, b)

    @given(
        st.text(alphabet="ab c", max_size=140),
        st.text(alphabet="abd ", max_size=140),
    )
    @settings(max_examples=100, deadline=None)
    def test_distance_equals_reference_past_one_word(self, a, b):
        # patterns longer than 64 characters span several machine words
        assert distance(a, b) == _reference_distance(a, b)

    @given(st.text(max_size=25), st.text(max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_distance_within_agrees_at_every_budget(self, a, b):
        d = _reference_distance(a, b)
        for budget in range(-1, max(len(a), len(b)) + 2):
            expected = d if d <= budget else None
            assert distance_within(a, b, budget) == expected


class TestDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("via roma", "via roma", 0),
            ("corso duca", "corso duce", 1),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert distance(a, b) == expected

    def test_symmetry_examples(self):
        assert distance("abcde", "xq") == distance("xq", "abcde")

    @given(st.text(max_size=25), st.text(max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(st.text(max_size=20), st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c)

    @given(st.text(max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_identity(self, a):
        assert distance(a, a) == 0

    @given(st.text(max_size=25), st.text(max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_length_difference_lower_bound(self, a, b):
        assert distance(a, b) >= abs(len(a) - len(b))


class TestDistanceWithin:
    @given(st.text(max_size=20), st.text(max_size=20), st.integers(0, 25))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_full_distance(self, a, b, budget):
        d = distance(a, b)
        within = distance_within(a, b, budget)
        if d <= budget:
            assert within == d
        else:
            assert within is None

    def test_negative_budget(self):
        assert distance_within("a", "a", -1) is None

    def test_empty_strings(self):
        assert distance_within("", "abc", 3) == 3
        assert distance_within("", "abc", 2) is None

    @given(
        st.text(alphabet="ab", min_size=8, max_size=30),
        st.text(alphabet="ab", min_size=8, max_size=30),
        st.integers(0, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_banded_early_abort_path(self, a, b, budget):
        """Small alphabet + long strings + tiny budgets: most pairs are
        far over budget, and the few within it must keep their distance."""
        d = distance(a, b)
        within = distance_within(a, b, budget)
        if within is not None:
            assert within == d
            assert within <= budget
        else:
            assert d > budget

    @given(st.text(max_size=15), st.text(max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_none_only_when_budget_exceeded(self, a, b):
        """For every budget, None appears iff the true distance exceeds it."""
        d = distance(a, b)
        for budget in (d - 1, d, d + 1):
            within = distance_within(a, b, budget)
            if budget < d:
                assert within is None
            else:
                assert within == d


class TestSimilarity:
    def test_equal_is_one(self):
        assert similarity("via po", "via po") == 1.0

    def test_disjoint_is_zero(self):
        assert similarity("abc", "xyz") == 0.0

    def test_empty_pair(self):
        assert similarity("", "") == 1.0

    @given(st.text(max_size=25), st.text(max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_bounds(self, a, b):
        s = similarity(a, b)
        assert 0.0 <= s <= 1.0

    @given(st.text(min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_one_edit_similarity(self, a):
        edited = a + "x"
        expected = 1.0 - 1.0 / len(edited)
        assert abs(similarity(a, edited) - expected) < 1e-12

    @given(st.text(max_size=20), st.text(max_size=20), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_similarity_at_least_consistent(self, a, b, phi):
        s = similarity(a, b)
        shortcut = similarity_at_least(a, b, phi)
        if s >= phi:
            assert shortcut == pytest.approx(s)
        else:
            assert shortcut is None


class TestBestMatch:
    def test_picks_closest(self):
        cands = ["corso francia", "via roma", "via rometta"]
        idx, sim = best_match("via roma", cands)
        assert idx == 1
        assert sim == 1.0

    def test_threshold_filters(self):
        assert best_match("zzz", ["via roma"], phi=0.8) is None

    def test_tie_keeps_first(self):
        idx, _ = best_match("ab", ["ax", "bx"], phi=0.0)
        assert idx == 0

    def test_empty_candidates(self):
        assert best_match("via roma", []) is None

    def test_typo_still_matches(self):
        cands = ["corso duca degli abruzzi", "via nizza"]
        idx, sim = best_match("corso duca degli abruzi", cands, phi=0.8)
        assert idx == 0
        assert sim > 0.9


_STREET_WORDS = st.sampled_from(
    ["via", "corso", "roma", "nizza", "francia", "duca", "po", "santa", "rita"]
)
_STREETS = st.lists(
    st.lists(_STREET_WORDS, min_size=1, max_size=3).map(" ".join),
    min_size=0,
    max_size=12,
)
_QUERIES = st.one_of(
    st.lists(_STREET_WORDS, min_size=1, max_size=3).map(" ".join),
    st.text(alphabet="abcorsvia ", max_size=20),
)


class TestGazetteerIndex:
    @given(_STREETS, _QUERIES, st.sampled_from([0.0, 0.5, 0.8, 0.9, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_equivalent_to_linear_scan(self, streets, query, phi):
        """The indexed lookup is observationally identical to best_match:
        same index, same similarity, same tie-breaks, same None."""
        index = GazetteerIndex(streets)
        assert index.best_match(query, phi) == best_match(query, streets, phi)

    @given(_STREETS, _QUERIES, st.sampled_from([0.0, 0.8]))
    @settings(max_examples=100, deadline=None)
    def test_repeat_lookup_is_stable(self, streets, query, phi):
        index = GazetteerIndex(streets)
        first = index.best_match(query, phi)
        assert index.best_match(query, phi) == first

    def test_exact_match_lowest_index_wins(self):
        streets = ["via roma", "via po", "via roma"]
        assert GazetteerIndex(streets).best_match("via roma", 0.8) == (0, 1.0)

    def test_phi_one_rejects_near_misses(self):
        index = GazetteerIndex(["via roma"])
        assert index.best_match("via rome", 1.0) is None
        assert index.best_match("via roma", 1.0) == (0, 1.0)

    def test_empty_gazetteer(self):
        assert GazetteerIndex([]).best_match("via roma", 0.8) is None

    def test_out_of_alphabet_query_chars(self):
        # "z"/"9" never occur in the candidates: they share the all-zero
        # match-mask row and must still count as mismatches
        streets = ["via roma", "corso francia"]
        index = GazetteerIndex(streets)
        for query in ("via zzz9", "via roma9"):
            assert index.best_match(query, 0.5) == best_match(query, streets, 0.5)

    def test_len(self):
        assert len(GazetteerIndex(["a", "b"])) == 2


#: Candidates the one-word kernel cannot hold, or holds at its edge.
_EDGE_NAMES = [
    "", "via " + "r" * 59, "via " + "r" * 60, "via " + "r" * 61, "v" * 100,
]
_EDGE_STREETS = st.sampled_from(_EDGE_NAMES)
_BATCH_STREETS = st.lists(
    st.one_of(
        st.lists(_STREET_WORDS, min_size=1, max_size=3).map(" ".join),
        _EDGE_STREETS,
    ),
    min_size=0,
    max_size=14,
).flatmap(
    # duplicate some names so ties between equal candidates occur
    lambda names: st.lists(st.sampled_from(names), max_size=3).map(
        lambda dups: names + dups
    )
    if names
    else st.just(names)
)
_BATCH_QUERIES = st.lists(
    st.one_of(
        _QUERIES,
        _EDGE_STREETS,
        st.text(alphabet="abcorsvia zé9", max_size=70),
    ),
    min_size=0,
    max_size=40,
)
_PHIS = st.sampled_from([0.0, 0.5, 0.8, 0.9, 1.0])


class TestBestMatches:
    def test_edge_lengths_are_on_both_sides_of_the_word(self):
        assert [len(name) for name in _EDGE_NAMES] == [0, 63, 64, 65, 100]

    @given(_BATCH_STREETS, _BATCH_QUERIES, _PHIS)
    @settings(max_examples=300, deadline=None)
    def test_equals_linear_scan(self, streets, queries, phi):
        index = GazetteerIndex(streets)
        assert index.best_matches(queries, phi) == [
            best_match(q, streets, phi) for q in queries
        ]

    @given(_BATCH_STREETS, _BATCH_QUERIES, _PHIS, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_result_does_not_depend_on_the_batch(
        self, streets, queries, phi, rng
    ):
        index = GazetteerIndex(streets)
        alone = [index.best_matches([q], phi)[0] for q in queries]
        assert index.best_matches(queries, phi) == alone
        order = list(range(len(queries)))
        rng.shuffle(order)
        shuffled = index.best_matches([queries[i] for i in order], phi)
        assert shuffled == [alone[i] for i in order]
        assert index.best_matches(queries + queries, phi) == alone + alone

    def test_many_queries_of_one_length_span_several_blocks(self):
        streets = ["via roma", "via rome", "corso po", "via nizza"]
        rng = random.Random(3)
        queries = [
            "".join(rng.choice("via romezp") for __ in range(8))
            for __ in range(100)
        ]
        index = GazetteerIndex(streets)
        for phi in (0.0, 0.5, 0.8):
            assert index.best_matches(queries, phi) == [
                best_match(q, streets, phi) for q in queries
            ]

    def test_empty_batch(self):
        assert GazetteerIndex(["via roma"]).best_matches([], 0.8) == []


class TestResolveDistinct:
    def test_serial_equals_two_jobs(self):
        collection = generate_epc_collection(
            SyntheticConfig(n_certificates=600, seed=3)
        )
        noisy = apply_noise(collection, NoiseConfig(seed=4))
        address = np.array(noisy.table["address"], dtype=object)
        serial = AddressCleaner(collection.street_map)._resolve_distinct(address)
        executor = ParallelMap(n_jobs=2, min_parallel_items=16)
        parallel = AddressCleaner(
            collection.street_map, executor=executor
        )._resolve_distinct(address)
        assert executor.shm_bytes > 0  # the pool path really ran
        assert executor.fallbacks == 0
        assert parallel == serial
        statuses = {status for __, status, __ in serial.values()}
        assert len(statuses) >= 3  # exact hits, matches and misses alike


class TestNormalize:
    def test_strip_accents(self):
        assert strip_accents("così è là") == "cosi e la"

    def test_expand_abbreviations(self):
        assert expand_abbreviations("c.so duca") == "corso duca"

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("C.SO Duca degli Abruzzi", "corso duca degli abruzzi"),
            ("  VIA   ROMA ", "via roma"),
            ("P.za Castello", "piazza castello"),
            ("Via S. Francesco d'Assisi", "via san francesco d assisi"),
            (None, ""),
            ("", ""),
        ],
    )
    def test_normalize_address(self, raw, expected):
        assert normalize_address(raw) == expected

    def test_normalization_idempotent(self):
        once = normalize_address("C.so Vittorio Emanuele II, 12")
        assert normalize_address(once) == once

    @pytest.mark.parametrize(
        "raw,street,number",
        [
            ("via roma 12", "via roma", "12"),
            ("via roma, 12 bis", "via roma", "12bis"),
            ("via roma n. 7", "via roma", "7"),
            ("via roma", "via roma", None),
            ("corso francia 140a", "corso francia", "140a"),
        ],
    )
    def test_split_house_number(self, raw, street, number):
        assert split_house_number(raw) == (street, number)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("12", "12"),
            ("12 BIS", "12bis"),
            ("7b", "7b"),
            ("  9 ", "9"),
            ("", None),
            (None, None),
            ("12/A", "12"),
        ],
    )
    def test_canonical_house_number(self, raw, expected):
        assert canonical_house_number(raw) == expected
