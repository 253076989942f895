"""The predictive static analyses: loops, frequencies, cache bounds.

Three layers of evidence, mirroring the module structure:

* **loops** — back-edge/natural-loop/depth detection against dominator
  facts on hand-built CFGs (self loops, nesting, the classic
  irreducible diamond) and Hypothesis-random digraphs;
* **freq** — branch probabilities form distributions, the fixpoint
  respects the flow equations, and static heat ranks real compiled
  loop bodies above their preheaders;
* **cachebound** — the bitmask must/may domain is sound against a
  concrete LRU oracle on random access strings and equals the dict
  domain it replaced, and the cycle bounds bracket the real simulator
  on real studies (spot here; exhaustively in the ``static`` check
  scope) and stay pinned on the compress fixture.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import build_call_module, build_counting_module
from repro.analysis.cachebound import (
    _join,
    _line_accesses,
    _transfer,
    _update,
    classify_fetch,
    cycle_bounds,
)
from repro.analysis.dataflow import dominators, reachable
from repro.analysis.freq import (
    BACK_EDGE_MASS,
    FREQUENCY_CLAMP,
    HEAT_QUANTUM,
    block_frequencies,
    branch_probabilities,
    static_heat_profile,
)
from repro.analysis.imagecfg import interprocedural_cfg
from repro.analysis.loops import (
    back_edges,
    irreducible_edges,
    loop_depths,
    loops,
    natural_loop,
)
from repro.compiler.pipeline import compile_module
from repro.errors import ConfigurationError
from repro.fetch.config import CacheGeometry, FetchConfig


# ------------------------------------------------------------ strategies
@st.composite
def digraphs(draw, max_nodes=7):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    return {
        node: draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=3,
                unique=True,
            )
        )
        for node in range(n)
    }


# ----------------------------------------------------------------- loops
class TestLoops:
    def test_simple_loop(self):
        cfg = {0: [1], 1: [2], 2: [1, 3], 3: []}
        assert back_edges(cfg, 0) == [(2, 1)]
        assert natural_loop(cfg, 2, 1) == frozenset({1, 2})
        found = loops(cfg, 0)
        assert len(found) == 1
        assert found[0].header == 1
        assert found[0].body == frozenset({1, 2})
        assert loop_depths(cfg, 0) == {0: 0, 1: 1, 2: 1, 3: 0}

    def test_self_loop(self):
        cfg = {0: [1], 1: [1, 2], 2: []}
        assert back_edges(cfg, 0) == [(1, 1)]
        assert natural_loop(cfg, 1, 1) == frozenset({1})
        assert loop_depths(cfg, 0)[1] == 1
        assert irreducible_edges(cfg, 0) == []

    def test_nested_loops_share_depth(self):
        # 1 is the outer header, 2 the inner; 3 only in the outer body.
        cfg = {0: [1], 1: [2], 2: [2, 3], 3: [1, 4], 4: []}
        headers = {loop.header for loop in loops(cfg, 0)}
        assert headers == {1, 2}
        depths = loop_depths(cfg, 0)
        assert depths[2] == 2
        assert depths[1] == depths[3] == 1
        assert depths[0] == depths[4] == 0

    def test_shared_header_bodies_merge(self):
        # Two back edges to one header: one natural loop, merged body.
        cfg = {0: [1], 1: [2, 3], 2: [1], 3: [1, 4], 4: []}
        found = loops(cfg, 0)
        assert len(found) == 1
        assert found[0].body == frozenset({1, 2, 3})

    def test_irreducible_diamond(self):
        # Two entries into the 1<->2 cycle: neither dominates the
        # other, so neither retreating edge is a dominator back edge.
        cfg = {0: [1, 2], 1: [2], 2: [1, 3], 3: []}
        assert back_edges(cfg, 0) == []
        assert loops(cfg, 0) == []
        assert irreducible_edges(cfg, 0) != []

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_back_edge_heads_dominate_tails(self, cfg):
        doms = dominators(cfg, 0)
        edges = {
            (u, v) for u in reachable(cfg, 0) for v in cfg[u]
        }
        backs = back_edges(cfg, 0)
        assert set(backs) <= edges
        for tail, header in backs:
            assert header in doms[tail]

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_loop_bodies_are_wellformed(self, cfg):
        doms = dominators(cfg, 0)
        for loop in loops(cfg, 0):
            assert loop.header in loop.body
            for member in loop.body:
                # Reachable, and dominated by the loop header.
                assert member in doms
                assert loop.header in doms[member]

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_irreducible_edges_disjoint_from_back_edges(self, cfg):
        backs = set(back_edges(cfg, 0))
        irreducible = set(irreducible_edges(cfg, 0))
        assert not (backs & irreducible)
        # Both kinds of retreating edge target a node on the DFS stack,
        # i.e. every irreducible edge closes some cycle.
        edges = {(u, v) for u in reachable(cfg, 0) for v in cfg[u]}
        assert irreducible <= edges

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_depths_count_containing_bodies(self, cfg):
        depths = loop_depths(cfg, 0)
        bodies = [loop.body for loop in loops(cfg, 0)]
        for node, depth in depths.items():
            assert depth == sum(1 for body in bodies if node in body)


# ------------------------------------------------------------- frequency
class TestFrequencies:
    def test_probabilities_form_distributions(self):
        cfg = {0: [1, 2], 1: [3], 2: [3], 3: [0, 4], 4: []}
        probs = branch_probabilities(cfg, 0)
        outgoing = {}
        for (u, _), p in probs.items():
            assert 0.0 < p <= 1.0
            outgoing[u] = outgoing.get(u, 0.0) + p
        for u, total in outgoing.items():
            assert math.isclose(total, 1.0)

    def test_back_edges_get_the_mass(self):
        cfg = {0: [1], 1: [1, 2], 2: []}
        probs = branch_probabilities(cfg, 0)
        assert math.isclose(probs[(1, 1)], BACK_EDGE_MASS)
        assert math.isclose(probs[(1, 2)], 1.0 - BACK_EDGE_MASS)

    def test_loop_frequency_hits_geometric_fixpoint(self):
        cfg = {0: [1], 1: [1, 2], 2: []}
        freq = block_frequencies(cfg, 0)
        assert math.isclose(freq[0], 1.0)
        # f(1) = 1 + BACK_EDGE_MASS * f(1)  =>  1 / (1 - mass);
        # the iteration cap leaves a ~1e-5 geometric residual.
        assert math.isclose(
            freq[1], 1.0 / (1.0 - BACK_EDGE_MASS), rel_tol=1e-4
        )

    def test_nested_loop_with_early_exits_respects_flow(self):
        # Outer loop 1..4, inner loop 2..3 with an early exit 3->5 that
        # bypasses the outer latch, plus an inner latch back to 2.
        cfg = {
            0: [1],
            1: [2],
            2: [3],
            3: [2, 4, 5],
            4: [1, 5],
            5: [],
        }
        probs = branch_probabilities(cfg, 0)
        freq = block_frequencies(cfg, 0, probs)
        # Inner body at least as hot as the outer, outer hotter than
        # straight-line code.
        assert freq[2] >= freq[1] > freq[0]
        assert freq[3] >= freq[4]
        # The fixpoint satisfies every flow equation (up to the
        # capped-iteration residual).
        for node in cfg:
            inflow = (1.0 if node == 0 else 0.0) + sum(
                freq[u] * probs[(u, node)]
                for u in cfg
                if (u, node) in probs
            )
            assert math.isclose(freq[node], inflow, rel_tol=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(digraphs())
    def test_frequencies_finite_and_covering(self, cfg):
        freq = block_frequencies(cfg, 0)
        keep = reachable(cfg, 0)
        assert set(freq) == set(keep)
        for value in freq.values():
            assert 0.0 <= value <= FREQUENCY_CLAMP

    def test_static_heat_ranks_a_real_loop(self):
        module, _ = build_counting_module()
        image = compile_module(module).image
        profile = static_heat_profile(image)
        assert len(profile) == len(image)
        entry = image.entry_block
        assert profile[entry] >= HEAT_QUANTUM
        # The loop body runs hotter than the entry straight-line code.
        assert max(profile) > profile[entry]

    def test_static_heat_crosses_calls(self):
        module, _ = build_call_module()
        image = compile_module(module).image
        profile = static_heat_profile(image)
        cfg = interprocedural_cfg(image)
        live = reachable(cfg, image.entry_block)
        # Interprocedural edges make the callee (and the code *after*
        # the call sites) reachable: every live block gets heat.
        assert len(live) > 1
        for block_id in range(len(image)):
            if block_id in live:
                assert profile[block_id] > 0
            else:
                assert profile[block_id] == 0


# ---------------------------------------------------------- must/may LRU
# The dict-of-dicts domain the bitmask domain replaced, kept verbatim as
# the exactness oracle: ``{set_index: {line: age}}``, empty sets omitted.
def _touch_must(state, accesses, ways):
    """Must-domain LRU update for a sequence of line accesses.

    Ages are upper bounds: lines strictly younger than the accessed
    line's (upper-bound) age got reordered below it, so only they age.
    """
    out = {s: dict(d) for s, d in state.items()}
    for set_index, line in accesses:
        bucket = out.get(set_index, {})
        age = bucket.get(line, ways)
        new_bucket = {}
        for other, a in bucket.items():
            if other == line:
                continue
            na = a + 1 if a < age else a
            if na < ways:
                new_bucket[other] = na
        new_bucket[line] = 0
        out[set_index] = new_bucket
    return out


def _touch_may(state, accesses, ways):
    """May-domain LRU update (ages are lower bounds).

    A line at (lower-bound) age at most the accessed line's age may sit
    below it concretely and therefore may age; when the accessed line
    is not in the may state at all the access is a guaranteed concrete
    miss and *every* resident line ages.
    """
    out = {s: dict(d) for s, d in state.items()}
    for set_index, line in accesses:
        bucket = out.get(set_index, {})
        age = bucket.get(line)
        new_bucket = {}
        for other, a in bucket.items():
            if other == line:
                continue
            na = a + 1 if age is None or a <= age else a
            if na < ways:
                new_bucket[other] = na
        new_bucket[line] = 0
        out[set_index] = new_bucket
    return out


def _join_must(a, b):
    """Intersection with maximal ages (the weaker guarantee survives)."""
    out = {}
    for set_index, da in a.items():
        db = b.get(set_index)
        if not db:
            continue
        merged = {
            line: max(age, db[line])
            for line, age in da.items()
            if line in db
        }
        if merged:
            out[set_index] = merged
    return out


def _join_may(a, b):
    """Union with minimal ages (any possibility survives)."""
    out = {s: dict(d) for s, d in a.items()}
    for set_index, db in b.items():
        bucket = out.setdefault(set_index, {})
        for line, age in db.items():
            cur = bucket.get(line)
            bucket[line] = age if cur is None else min(cur, age)
    return out


#: Lines 0..5 in two interleaved sets (even lines in set 0, odd in 1).
LINES = 6
_PAIRS = [((line & 1, line),) for line in range(LINES)]
_ACCESS = _line_accesses(_PAIRS)


def decode(le):
    """``{line: age}`` of a cumulative-bitmask state."""
    ages = {}
    for line in range(LINES):
        for age, mask in enumerate(le):
            if mask >> line & 1:
                ages[line] = age
                break
    return ages


def _flatten(state):
    return {
        line: age for bucket in state.values() for line, age in bucket.items()
    }


def _concrete_lru(accesses, ways):
    """Oracle: a concrete LRU cache of two sets, cold start,
    ``{line: age}``."""
    state = {}
    for line in accesses:
        old = state.get(line)
        for other, age in list(state.items()):
            if other & 1 == line & 1 and (old is None or age < old):
                state[other] = age + 1
        state = {l: a for l, a in state.items() if a < ways}
        state[line] = 0
    return state


def _abstract(accesses, ways, start=None):
    must, may = start or ((0,) * ways, (0,) * ways)
    for line in accesses:
        must = _update(must, _ACCESS[line], True)
        may = _update(may, _ACCESS[line], False)
    return must, may


def _oracle(accesses, ways, start=None):
    must, may = start or ({}, {})
    for line in accesses:
        must = _touch_must(must, _PAIRS[line], ways)
        may = _touch_may(may, _PAIRS[line], ways)
    return must, may


def _assert_brackets(must, may, concrete):
    """must ⊆ concrete ⊆ may, with ages bracketing the concrete age."""
    for line, age in decode(must).items():
        assert line in concrete
        assert concrete[line] <= age
    may_ages = decode(may)
    for line, age in concrete.items():
        assert line in may_ages
        assert may_ages[line] <= age


def accesses_st(max_size):
    return st.lists(
        st.integers(min_value=0, max_value=LINES - 1), max_size=max_size
    )

ways_st = st.sampled_from((1, 2, 4))


class TestMustMayDomain:
    @settings(max_examples=120, deadline=None)
    @given(ways_st, accesses_st(12))
    def test_domain_sound_against_concrete_lru(self, ways, accesses):
        # From a cold start the abstraction is exact-or-weaker:
        # must-hits really resident, everything resident in may.
        must, may = _abstract(accesses, ways)
        _assert_brackets(must, may, _concrete_lru(accesses, ways))

    @settings(max_examples=80, deadline=None)
    @given(
        ways_st,
        accesses_st(8),
        accesses_st(8),
        accesses_st(6),
    )
    def test_join_is_sound_for_both_paths(self, ways, left, right, tail):
        """After joining two paths, must ⊆ each path's concrete cache
        and each path's concrete cache ⊆ may — even after more
        accesses run on the joined state."""
        lm, lmay = _abstract(left, ways)
        rm, rmay = _abstract(right, ways)
        joined = (_join(lm, rm, True), _join(lmay, rmay, False))
        must, may = _abstract(tail, ways, joined)
        for path in (left, right):
            _assert_brackets(must, may, _concrete_lru(path + tail, ways))

    @settings(max_examples=80, deadline=None)
    @given(
        ways_st,
        accesses_st(10),
        st.integers(min_value=0, max_value=LINES - 1),
    )
    def test_access_leaves_the_other_set_alone(self, ways, prefix, line):
        before = _abstract(prefix, ways)
        after = _abstract([line], ways, before)
        for old, new in zip(before, after):
            assert {
                l: a for l, a in decode(old).items() if l & 1 != line & 1
            } == {
                l: a for l, a in decode(new).items() if l & 1 != line & 1
            }

    @settings(max_examples=120, deadline=None)
    @given(ways_st, accesses_st(16))
    def test_update_equals_dict_domain(self, ways, accesses):
        must, may = _abstract(accesses, ways)
        oracle_must, oracle_may = _oracle(accesses, ways)
        assert decode(must) == _flatten(oracle_must)
        assert decode(may) == _flatten(oracle_may)

    @settings(max_examples=120, deadline=None)
    @given(
        ways_st,
        accesses_st(8),
        accesses_st(8),
        accesses_st(6),
        st.booleans(),
    )
    def test_join_equals_dict_domain(
        self, ways, left, right, tail, skippable
    ):
        """Joins of two paths, then a tail, match the dict domain
        exactly — the tail optionally through the L0 "may or may not
        access" transfer."""
        lm, lmay = _abstract(left, ways)
        rm, rmay = _abstract(right, ways)
        must, may = _join(lm, rm, True), _join(lmay, rmay, False)
        olm, olmay = _oracle(left, ways)
        orm, ormay = _oracle(right, ways)
        omust, omay = _join_must(olm, orm), _join_may(olmay, ormay)
        assert decode(must) == _flatten(omust)
        assert decode(may) == _flatten(omay)
        for line in tail:
            must = _transfer(must, _ACCESS[line], skippable, True)
            may = _transfer(may, _ACCESS[line], skippable, False)
            new_must = _touch_must(omust, _PAIRS[line], ways)
            new_may = _touch_may(omay, _PAIRS[line], ways)
            if skippable:
                new_must = _join_must(new_must, omust)
                new_may = _join_may(new_may, omay)
            omust, omay = new_must, new_may
        assert decode(must) == _flatten(omust)
        assert decode(may) == _flatten(omay)


# ---------------------------------------------------------- cycle bounds
class TestCycleBounds:
    SCHEMES = ("base", "tailored", "compressed", "hybrid", "hybrid:static")

    @pytest.fixture(scope="class")
    def study(self, compress_study):
        return compress_study

    def _image_key(self, scheme):
        from repro.runtime.tasks import fetch_image_key

        return fetch_image_key(scheme)

    def test_classification_is_consistent(self, study):
        for scheme in self.SCHEMES:
            compressed = study.compressed(self._image_key(scheme))
            cls = classify_fetch(
                compressed, FetchConfig.for_scheme(scheme)
            )
            for part in (cls.cache, cls.atb):
                assert not (part.always_hit & part.always_miss)
                assert (part.always_hit | part.always_miss) <= (
                    part.analyzed
                )
                assert part.unclassified == (
                    part.analyzed - part.always_hit - part.always_miss
                )

    def test_bounds_bracket_the_simulator(self, study):
        from repro.compression.adaptive import heat_profile

        counts = heat_profile(
            study.run.block_trace, len(study.compiled.image)
        )
        for scheme in self.SCHEMES:
            compressed = study.compressed(self._image_key(scheme))
            config = FetchConfig.for_scheme(scheme)
            metrics = study.fetch_metrics(scheme, config)
            report = cycle_bounds(compressed, counts, config)
            assert report.lower <= metrics.cycles <= report.upper
            assert report.bracket(metrics.cycles)
            payload = report.to_json()
            assert payload["lower_cycles"] == report.lower
            assert payload["upper_cycles"] == report.upper

    def test_standard_bounds_bound_the_simulated_config(self, study):
        """``analyze --bounds`` brackets the simulated cycles with bounds
        of that same pressure-scaled config, not the literal one."""
        from repro.analysis.cachebound import standard_bounds
        from repro.compression.adaptive import heat_profile

        counts = heat_profile(
            study.run.block_trace, len(study.compiled.image)
        )
        for scheme, compressed, report, cycles in standard_bounds(
            study, counts
        ):
            config = FetchConfig.for_scheme(scheme, scaled=True)
            assert cycles == study.fetch_metrics(scheme, config).cycles
            expected = cycle_bounds(compressed, counts, config)
            assert report.to_json() == expected.to_json(), scheme

    def test_bounds_bracket_on_a_tiny_geometry(self, study):
        """A cache small enough to actually miss keeps the bracket."""
        from repro.compression.adaptive import heat_profile
        from repro.fetch.engine import simulate_fetch

        counts = heat_profile(
            study.run.block_trace, len(study.compiled.image)
        )
        compressed = study.compressed("full")
        config = FetchConfig(
            scheme="compressed",
            cache=CacheGeometry(
                name="tiny", capacity_bytes=512, ways=2, line_bytes=16
            ),
            atb_entries=64,
            atb_ways=2,
        )
        simulated = simulate_fetch(
            compressed, study.run.block_trace, config
        )
        report = cycle_bounds(compressed, counts, config)
        assert report.lower <= simulated.cycles <= report.upper

    #: ``cycle_bounds(...).to_json()`` on the compress fixture under the
    #: trace heat profile: (lower, upper, fetches, cache AH/AM/NC,
    #: ATB AH/AM/NC) per scheme at the standard config and the tiny
    #: 512 B/2-way/16 B geometry.
    PINNED = {
        ("base", "standard"): (20058, 42734, 2227, 9, 2, 50, 0, 3, 58),
        ("base", "tiny"): (22546, 49993, 2227, 1, 30, 30, 0, 3, 58),
        ("tailored", "standard"): (20060, 42913, 2227, 13, 2, 46, 0, 3, 58),
        ("tailored", "tiny"): (20973, 48726, 2227, 4, 12, 45, 0, 3, 58),
        ("compressed", "standard"): (20248, 45464, 2227, 1, 1, 59, 0, 3, 58),
        ("compressed", "tiny"): (20632, 46414, 2227, 1, 1, 59, 0, 3, 58),
        ("hybrid", "standard"): (20056, 42816, 2227, 7, 1, 53, 0, 3, 58),
        ("hybrid", "tiny"): (20056, 45913, 2227, 6, 1, 54, 0, 3, 58),
        ("hybrid:static", "standard"): (
            20056, 42122, 2227, 9, 1, 51, 0, 3, 58
        ),
        ("hybrid:static", "tiny"): (20056, 45025, 2227, 5, 1, 55, 0, 3, 58),
    }

    def test_bounds_are_pinned(self, study):
        from repro.compression.adaptive import heat_profile

        counts = heat_profile(
            study.run.block_trace, len(study.compiled.image)
        )
        tiny = CacheGeometry(
            name="tiny", capacity_bytes=512, ways=2, line_bytes=16
        )
        keys = (
            "lower_cycles", "upper_cycles", "fetches",
            "cache_always_hit", "cache_always_miss", "cache_unclassified",
            "atb_always_hit", "atb_always_miss", "atb_unclassified",
        )
        for scheme in self.SCHEMES:
            compressed = study.compressed(self._image_key(scheme))
            configs = {
                "standard": FetchConfig.for_scheme(scheme),
                "tiny": FetchConfig(
                    scheme=scheme, cache=tiny, atb_entries=64, atb_ways=2
                ),
            }
            for label, config in configs.items():
                payload = cycle_bounds(compressed, counts, config).to_json()
                expected = dict(
                    zip(keys, self.PINNED[(scheme, label)]), scheme=scheme
                )
                assert payload == expected, (scheme, label)

    def test_counts_length_is_validated(self, study):
        compressed = study.compressed("full")
        with pytest.raises(ConfigurationError):
            cycle_bounds(
                compressed, [1], FetchConfig.for_scheme("compressed")
            )
