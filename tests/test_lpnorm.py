import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardyvx import (
    Constant,
    DyadicJump,
    LogPerturbed,
    PiecewiseConstant,
    SampledFunction,
    Tabulated,
    bracket_check,
    luxemburg_norm,
    make_log_grid,
    modular,
)
from hardyvx import lpnorm
from hardyvx.config import parse_config
from hardyvx.exponent import EXP_GUARD, ExponentFunction, log_phi, on_grid
from hardyvx.grids import integrate
from hardyvx.hardy import (
    FamilyMember,
    dyadic_indicator_family,
    hardy_average,
    necessity_family,
    operator_norm_lower_bound,
    power_family,
)
from hardyvx.lpnorm import UnboundedNormError, luxemburg_norms, quotient_norms
from hardyvx.report import run_scenario

from conftest import (power_function, random_piecewise_power, scaled,
                      step_family)


def inverse_x(grid, a_list, delta):
    """x -> 1/x on (a, delta) for each a, as C2, C4 and C5 read it."""
    return [SampledFunction(grid, 1.0 / grid.points, support=(a, delta))
            for a in a_list]


class TestModular:
    def test_constant_exponent_power(self, grid):
        # integral of x^{-1/2} over (x_min, 1) with p = 2 applied to x^{-1/4}
        f = power_function(grid, -0.25)
        mv = modular(f, Constant(2.0))
        exact = 2.0 * (1.0 - math.sqrt(grid.x_min))
        assert mv.value == pytest.approx(exact, rel=1e-12)

    def test_truncation_bias_reported(self, grid):
        f = power_function(grid, -0.25)
        mv = modular(f, Constant(2.0))
        # the missing head integral of x^{-1/2} over (0, x_min)
        assert mv.truncation_bias == pytest.approx(
            2.0 * math.sqrt(grid.x_min), rel=1e-9)

    def test_overflow_is_infinite(self, grid):
        f = power_function(grid, -0.5, coeff=1e200)
        mv = modular(f, Constant(5.0))
        assert not mv.finite

    def test_divergent_head_flagged_in_bias(self, grid):
        # x^{-0.9} under p = 5 integrates on (x_min, 1) but its true
        # modular diverges at 0; the bias estimate reports that honestly
        f = power_function(grid, -0.9)
        mv = modular(f, Constant(5.0))
        assert mv.finite
        assert mv.truncation_bias == math.inf

    def test_two_valued_exponent_split_exact(self, grid):
        p = PiecewiseConstant((0.5,), (2.0, 3.0))
        f = power_function(grid, -0.1)
        lo_part = (1.0 - grid.x_min ** 0.8) / 0.8 - (1.0 - 0.5 ** 0.8) / 0.8
        hi_part = (1.0 - 0.5 ** 0.7) / 0.7
        assert modular(f, p).value == pytest.approx(lo_part + hi_part,
                                                    rel=1e-12)

    def test_support_ends_within_an_ulp_of_a_jump_on_a_node(self, grid):
        # 1e-9, 1e-6 and 1e-3 lie within rounding of nodes 300, 600 and
        # 900: a support end at, or an ulp either side of, such a jump
        # leaves a sliver of no width in u between them, which adds
        # nothing (its true weight is below 1e-16); f = 2, so the modular
        # is the sum of 2**p times length
        jumps, values = (1e-9, 1e-6, 1e-3, 0.3), (1.5, 2.5, 3.0, 2.0, 3.5)
        p = PiecewiseConstant(jumps, values)
        on_node = [d for d in jumps
                   if np.isclose(grid.points, d, rtol=1e-14, atol=0).any()]
        assert on_node == [1e-9, 1e-6, 1e-3]
        edges = (grid.x_min,) + jumps + (1.0,)

        def closed_form(lo, hi):
            return math.fsum(2.0 ** v * (min(b, hi) - max(a, lo))
                             for a, b, v in zip(edges, edges[1:], values)
                             if min(b, hi) > max(a, lo))

        for d in on_node:
            ends = (np.nextafter(d, 0.0), d, np.nextafter(d, 1.0))
            supports = ([(end, 0.5) for end in ends]
                        + [(1e-10, end) for end in ends] + [ends[::2]])
            for support in supports:
                f = SampledFunction(grid, np.full(grid.n, 2.0),
                                    support=support)
                assert modular(f, p).value == pytest.approx(
                    closed_form(*support), rel=1e-12, abs=1e-16)
                nv = luxemburg_norm(f, p)
                if nv.value > 0.0:
                    assert modular(scaled(f, 1.0 / nv.value), p).value <= 1.0


class TestLuxemburgNorm:
    def test_matches_lp_norm_constant_exponent(self, grid):
        f = power_function(grid, -0.25)
        nv = luxemburg_norm(f, Constant(2.0))
        exact = math.sqrt(2.0 * (1.0 - math.sqrt(grid.x_min)))
        assert nv.value == pytest.approx(exact, rel=1e-9)

    def test_norm_of_one_is_one(self, grid):
        f = power_function(grid, 0.0)
        # interval (x_min, 1) has measure 1 - x_min, so the norm of the
        # constant 1 is (1 - x_min)^{1/p}
        nv = luxemburg_norm(f, Constant(2.0))
        assert nv.value == pytest.approx(math.sqrt(1.0 - grid.x_min),
                                         rel=1e-9)

    def test_zero_function(self, grid):
        f = SampledFunction(grid, np.zeros(grid.n))
        assert luxemburg_norm(f, Constant(2.0)).value == 0.0

    def test_modular_at_norm_is_at_most_one(self, grid):
        f = power_function(grid, -0.3, coeff=2.5)
        p = Constant(1.7)
        nv = luxemburg_norm(f, p)
        assert modular(scaled([f], 1.0 / nv.value), p).value <= 1.0 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(-0.4, 0.4), st.floats(1.1, 4.0))
    def test_property_homogeneity(self, c, q, p0):
        grid = make_log_grid(1e-8, 241)
        p = Constant(p0)
        f1 = power_function(grid, q, 1.0)
        fc = power_function(grid, q, c)
        n1 = luxemburg_norm(f1, p).value
        nc = luxemburg_norm(fc, p).value
        assert nc == pytest.approx(c * n1, rel=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(1.1, 4.0), st.floats(-0.5, 0.5))
    def test_property_modular_decreases_in_lambda(self, p0, q):
        grid = make_log_grid(1e-8, 241)
        f = power_function(grid, q, coeff=2.0)
        p = Constant(p0)
        vals = [modular(scaled([f], 1.0 / lam), p).value
                for lam in (0.5, 1.0, 2.0, 8.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestLockstepSolver:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 0.9),
           st.floats(1.0, 6.0), st.floats(1.0, 6.0))
    def test_property_certified_bracket(self, seed, jump, p1, p2):
        grid = make_log_grid(1e-8, 241)
        segs, _ = random_piecewise_power(grid, np.random.default_rng(seed))
        p = PiecewiseConstant((jump,), (p1, p2))
        tol = 1e-10
        nv = luxemburg_norm(segs, p, tol=tol)
        lo, hi = nv.bracket
        assert nv.value == hi
        assert (hi - lo) / hi <= tol
        assert modular(scaled(segs, 1.0 / hi), p).value <= 1.0
        assert modular(scaled(segs, 1.0 / lo), p).value > 1.0

    @pytest.mark.parametrize("coeff", [1.0, 1e13])
    def test_tol_below_double_resolution_ends(self, coeff):
        # no bracket is narrower than double resolution in lambda or in
        # ln lambda; the solve stops there, keeps lo < hi certified and
        # reports the width it reached
        grid = make_log_grid(1e-8, 241)
        p = PiecewiseConstant((0.1,), (2.0, 3.0))
        f = power_function(grid, -0.3, coeff=coeff)
        nv = luxemburg_norm(f, p, tol=1e-20)
        lo, hi = nv.bracket
        assert nv.value == hi
        assert 0.0 < nv.tol == (hi - lo) / hi < 1e-13
        assert modular(scaled([f], 1.0 / hi), p).value <= 1.0
        assert modular(scaled([f], 1.0 / lo), p).value > 1.0

    @staticmethod
    def jobs():
        """(p, jobs, the one unbounded job) for the batched solves."""
        grid = make_log_grid(1e-8, 241)
        p = PiecewiseConstant((0.01,), (1.5, 2.5))
        # node values outside the support enter the boundary cell, so a
        # spike there keeps the modular above 1 up to 2**200 sup|f|
        spike = np.ones(grid.n)
        i = grid.node_slice(0.25, 1.0).start
        spike[i] = 1e300
        unbounded = SampledFunction(grid, spike,
                                    support=(grid.points[i] * 1.0001, 0.5))
        members = (power_family(p, grid)[::4]
                   + necessity_family(p, grid, depth=12)[::3]
                   + dyadic_indicator_family(grid)[::5])
        jobs = [m.f for m in members]
        jobs.insert(3, unbounded)
        jobs.append(power_function(grid, -0.3, support=(0.001, 0.5)))
        return p, jobs, unbounded

    def test_batch_matches_single_jobs(self):
        p, jobs, unbounded = self.jobs()
        batch = luxemburg_norms(jobs, p)
        assert len(batch) == len(jobs)
        for f, result in zip(jobs, batch):
            if f is unbounded:
                assert isinstance(result, UnboundedNormError)
                with pytest.raises(UnboundedNormError):
                    luxemburg_norm(f, p)
            else:
                assert result == luxemburg_norm(f, p)


class TestBatchedPreparation:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 12)), st.integers(1, 20))
    @example([5, 5, 1], 10)
    def test_batches_keep_order_within_budget(self, sizes, budget):
        # each item once, in order; a batch past the budget holds one
        # item, and a batch is cut only where the next item would not fit
        items = list(enumerate(sizes))
        with mock.patch.object(lpnorm, "_GROUP_CELLS", budget):
            batches = list(lpnorm._batches(items, lambda item: item[1]))
        assert [item for batch in batches for item in batch] == items
        totals = [sum(n for _, n in batch) for batch in batches]
        for batch, total in zip(batches, totals):
            assert batch and (total <= budget or len(batch) == 1)
        for total, after in zip(totals, batches[1:]):
            assert total + after[0][1] > budget

    def _jobs(self, grid, p):
        """Jobs of every shape the preparation batches: multi-segment
        necessity members across jumps, the zero runs of a dyadic
        indicator's Hardy average, heads below x_min, a support inside
        the grid, an unbounded, a negligible and a zero job."""
        necessity = [m.f for m in necessity_family(p, grid, depth=14)]
        assert any(len(f) > 1 for f in necessity)
        spike = np.ones(grid.n)
        i = grid.node_slice(0.25, 1.0).start
        spike[i] = 1e300
        fs = (necessity
              + [hardy_average(m.f) for m in dyadic_indicator_family(grid)[2:5]]
              + [m.f for m in power_family(p, grid)[::4]]
              + [SampledFunction(grid, spike,
                                 support=(grid.points[i] * 1.0001, 0.5)),
                 SampledFunction(grid, np.full(grid.n, 1e-305)),
                 SampledFunction(grid, np.zeros(grid.n))])
        jobs = list(fs)
        jobs.insert(5, power_function(grid, -0.3, support=(0.001, 0.5)))
        return jobs

    @pytest.mark.parametrize("budget", [1, None, 10 ** 12])
    def test_batches_match_single_jobs_bit_for_bit(self, monkeypatch, budget):
        grid = make_log_grid(1e-8, 241)
        p = PiecewiseConstant((2.0 ** -9, 0.01, 0.3), (1.5, 2.5, 2.0, 3.0))
        jobs = self._jobs(grid, p)
        singles = [lpnorm.luxemburg_norms([job], p)[0] for job in jobs]
        prepared = [next(lpnorm._prepare([job], p)) for job in jobs]
        if budget is not None:
            monkeypatch.setattr(lpnorm, "_GROUP_CELLS", budget)
        batch = luxemburg_norms(jobs, p)
        kinds = [type(result).__name__ for result in batch]
        assert kinds.count("UnboundedNormError") == 1
        assert sum(r.bracket == (0.0, lpnorm._LAM_MIN) for r in batch
                   if isinstance(r, lpnorm.NormValue)) == 1
        assert sum(r.value == 0.0 for r in batch
                   if isinstance(r, lpnorm.NormValue)) == 1
        for job, single, cells, result, batched in zip(
                jobs, singles, prepared, batch, lpnorm._prepare(jobs, p)):
            assert np.array_equal(batched.rows, cells.rows)
            assert batched[1:] == cells[1:]
            if isinstance(single, UnboundedNormError):
                assert isinstance(result, UnboundedNormError)
                with pytest.raises(UnboundedNormError):
                    luxemburg_norm(job, p)
                continue
            assert result == single == luxemburg_norm(job, p)


    @pytest.mark.parametrize("budget", [1, None, 10 ** 12])
    def test_jobs_are_cut_from_the_layout(self, monkeypatch, budget):
        # each piece (s, t) of p over a job's clipped segment reaches the
        # cell builder as the nodes of node_slice(s, t), with p_at's
        # values and f's: C1 members of every kind and their Hardy
        # averages, (a, delta) supports, heads below x_min, and supports
        # starting near the jump at 0.01, within rounding of a node, and
        # the one at 0.0123, inside a cell; a support end in a jump's cell
        # leaves the node below it outside f's support on both pieces
        grid = make_log_grid(1e-8, 241)
        p = on_grid(PiecewiseConstant((2.0 ** -9, 0.01, 0.0123, 0.3),
                                      (1.5, 2.5, 2.2, 2.0, 3.0)), grid)
        members = [m.f for m in power_family(p.p, grid)
                   + dyadic_indicator_family(grid)
                   + necessity_family(p, grid, depth=14)
                   + step_family(grid)[:3]]
        lows = []
        for d in (0.01, 0.0123):
            x = grid.points[grid.node_slice(d, 1.0).start:][:3]
            lows += [math.sqrt(x[0] * d), d, math.sqrt(d * x[1]), x[1],
                     math.sqrt(x[1] * x[2])]
        a_list = [grid.x_min, 2.0 ** -20, 2.0 ** -9] + lows[:3]
        jobs = (members
                + [hardy_average(f) for f in members[::5]]
                + inverse_x(grid, a_list, 1.0)
                + inverse_x(grid, a_list, 0.3)
                + [power_function(grid, -0.3,
                                  support=(grid.x_min * (1 - 1e-12), b))
                   for b in (0.0123, 1.0)]
                + [SampledFunction(grid, np.full(grid.n, 2.0),
                                   support=(lo, 0.5))
                   for lo in lows])
        batches = []
        cells = lpnorm._cells

        def recorded(layout, f, counts, outside, heads):
            batches.append((layout, f, counts, set(outside), set(heads)))
            return cells(layout, f, counts, outside, heads)

        monkeypatch.setattr(lpnorm, "_cells", recorded)
        if budget is not None:
            monkeypatch.setattr(lpnorm, "_GROUP_CELLS", budget)
        assert len(list(lpnorm._prepare(jobs, p))) == len(jobs)
        cut = []  # the pieces of each job, as (batch, piece index)
        for batch in batches:
            k = 0
            for count in batch[2]:
                cut.append([(batch, i) for i in range(k, k + count)])
                k += count
        assert len(cut) == len(jobs)
        seen = {"outside": 0, "outside on a later piece": 0, "heads": 0}
        for f, pieces in zip(jobs, cut):
            expected = []
            for seg in lpnorm.as_segments(f):
                lo, hi = seg.effective_support()
                lo_eff, hi_eff = max(lo, grid.x_min), min(hi, 1.0)
                if lo_eff < hi_eff:
                    head = lo < grid.x_min
                    expected += [(seg, lo, hi, s, t, head and s == lo_eff,
                                  s > lo_eff)
                                 for s, t in p.pieces(lo_eff, hi_eff)]
            assert len(pieces) == len(expected)
            for ((layout, values, _, outside, heads), k), (
                    seg, lo, hi, s, t, head, later) in zip(pieces, expected):
                i, j = layout.first[k], layout.last[k] + 2
                nodes = grid.node_slice(s, t)
                assert np.array_equal(layout.u[i:j], grid.u[nodes])
                assert np.array_equal(layout.p[i:j], p.p_at(nodes, s, t))
                assert np.array_equal(values[i:j], seg.values[nodes])
                assert layout.start[k] == nodes.start
                assert (layout.ln_s[k], layout.ln_t[k]) == (math.log(s),
                                                            math.log(t))
                x = grid.points[nodes]
                assert ((i in outside, j - 1 in outside)
                        == (x[0] < lo, x[-1] > hi))
                assert (k in heads) == head
                seen["outside"] += i in outside or j - 1 in outside
                seen["outside on a later piece"] += later and i in outside
                seen["heads"] += head
        assert all(seen.values()), seen

    @pytest.mark.parametrize("budget", [1, None, 10 ** 12])
    def test_numerators_match_prepared_hardy_averages(self, monkeypatch,
                                                      budget):
        # C1's numerator cells, cut from one layout of p, are bit for bit
        # those of each Hardy average prepared over the whole grid: power
        # members with a head, necessity members across jumps, and
        # supports starting below, at and above a jump inside the jump's
        # cell, at the node that ends that cell (the last node of the
        # piece below the jump) and in the next cell; the jump at 0.01
        # lies within rounding of a node, the one at 0.0123 inside a cell
        grid = make_log_grid(1e-8, 241)
        p = on_grid(PiecewiseConstant((2.0 ** -9, 0.01, 0.0123, 0.3),
                                      (1.5, 2.5, 2.2, 2.0, 3.0)), grid)
        necessity = [m.f for m in necessity_family(p, grid, depth=14)]
        assert any(len(f) > 1 for f in necessity)
        lows = []
        for d in (0.01, 0.0123):
            x = grid.points[grid.node_slice(d, 1.0).start:][:3]
            lows += [math.sqrt(x[0] * d), d, math.sqrt(d * x[1]), x[1],
                     math.sqrt(x[1] * x[2])]
        fs = ([m.f for m in power_family(p.p, grid)]
              + [m.f for m in dyadic_indicator_family(grid)]
              + necessity
              + [SampledFunction(grid, np.full(grid.n, 2.0), support=(lo, 0.5))
                 for lo in lows]
              + [m.f for m in step_family(grid)[:3]])
        if budget is not None:
            monkeypatch.setattr(lpnorm, "_GROUP_CELLS", budget)
        numerators = list(lpnorm._average_cells(fs, p))
        assert len(numerators) == len(fs)
        for f, cells in zip(fs, numerators):
            (whole,) = lpnorm._prepare([hardy_average(f)], p)
            assert np.array_equal(cells.rows, whole.rows)
            assert (cells.guard, cells.sup) == (whole.guard, whole.sup)


class TestPreparedCells:
    def test_one_full_grid_p_eval_per_call(self, monkeypatch):
        grid = make_log_grid(1e-8, 241)
        p = PiecewiseConstant((0.01,), (1.5, 2.5))
        jobs = [m.f for m in power_family(p, grid)
                + dyadic_indicator_family(grid)]
        sizes = []
        original = ExponentFunction.eval

        def counted(self, x):
            sizes.append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(ExponentFunction, "eval", counted)
        luxemburg_norms(jobs, p)
        assert len(jobs) > 20 and sizes.count(grid.n) == 1

    @pytest.mark.parametrize("p", [Constant(2.5),
                                   PiecewiseConstant((0.01,), (1.5, 2.5))])
    def test_dropped_zero_cells_keep_the_modular(self, p):
        # the Hardy average of a dyadic indicator is 0 below the block:
        # those cells are dropped, the one cell with a zero end is kept
        grid = make_log_grid(1e-8, 241)
        member = dyadic_indicator_family(grid)[10]
        h = hardy_average(member.f)
        mv = modular(h, p)
        (cells,) = lpnorm._prepare([h], p)
        assert 0 < cells.size < grid.n // 2
        below, above = (SampledFunction(grid, h.values ** p.eval(x))
                        for x in (grid.x_min, 1.0))
        reference = (integrate(below, grid.x_min, 0.01)
                     + integrate(above, 0.01, 1.0))
        assert mv.value == pytest.approx(reference, rel=1e-12)

    def test_checked_norms_skip_functions_outside_the_space(self, grid):
        # x^-0.6 has |f|^2 = x^-1.2, whose head below x_min diverges: the
        # sweep skips it, by its modular, whatever its norms are
        p = Constant(2.0)
        fs = [power_function(grid, -0.2), power_function(grid, -0.6),
              power_function(grid, 0.5, coeff=3.0)]
        members = [FamilyMember(f"f{k}", f) for k, f in enumerate(fs)]
        res = operator_norm_lower_bound(p, members)
        assert [m.label in res.skipped for m in members] == [False, True,
                                                             False]
        for f, member, (mv, norm, _) in zip(fs, members,
                                            quotient_norms(fs, p)):
            assert mv == modular(f, p)
            if member.label not in res.skipped:
                assert norm == luxemburg_norm(f, p)

    @pytest.mark.parametrize("budget", [None, 500])
    def test_checked_norms_prepare_in_one_stream(self, grid, monkeypatch,
                                                 budget):
        # the whole list enters one _prepare call, cut in batches of at
        # most _GROUP_CELLS nodes (a larger job alone), and each f keeps
        # the modular and the norm it gets alone, bit for bit; the
        # averages, cut once _average_cells starts, are not f's batches
        p = PiecewiseConstant((2.0 ** -9, 0.1), (2.0, 2.6, 3.0))
        fs = ([m.f for m in necessity_family(p, grid)]
              + [m.f for m in dyadic_indicator_family(grid)]
              + [m.f for m in step_family(grid)])
        singles = [(modular(f, p), luxemburg_norm(f, p)) for f in fs]
        calls, batches, averaging = [], [], []
        prepare, cut = lpnorm._prepare, lpnorm._cut
        average = lpnorm._average_cells

        def counted(jobs, q):
            calls.append([])

            def each():
                for job in jobs:
                    calls[-1].append(job)
                    yield job
            return prepare(each(), q)

        def averages(fs, q):
            averaging.append(True)
            yield from average(fs, q)

        def cut_batch(q, batch):
            if not averaging:
                batches.append(sum(row[3] - row[2] for job in batch
                                   for row in job) if len(batch) > 1 else 0)
            return cut(q, batch)

        monkeypatch.setattr(lpnorm, "_prepare", counted)
        monkeypatch.setattr(lpnorm, "_average_cells", averages)
        monkeypatch.setattr(lpnorm, "_cut", cut_batch)
        if budget is not None:
            monkeypatch.setattr(lpnorm, "_GROUP_CELLS", budget)
        checked = quotient_norms(fs, p)
        assert len(calls) == 1 and len(calls[0]) == len(fs)
        assert all(f is g for f, g in zip(calls[0], fs))
        assert 1 < len(batches) < len(fs)
        assert max(batches) <= lpnorm._GROUP_CELLS
        for (mv, norm, _), (single_mv, single_norm) in zip(checked, singles):
            assert mv == single_mv
            assert norm == single_norm

    def test_points_past_the_guard_are_inf_unevaluated(self, grid):
        # I <= 1 at the start sends the search to the floor of its range,
        # far below the guard: it takes I = inf there and at each
        # bisection point below the guard, in the one update, and moves
        # its lower end up to the last of them
        (cells,) = lpnorm._prepare([power_function(grid, -0.3)],
                                   Constant(3.0))
        search = lpnorm._Search(cells, 1e-10)
        assert search.floor < cells.guard < search.point
        search.update(0.0, 0.0)
        assert search.result is None and search.newton_steps > 2
        assert search.lo_seen and search.lo < cells.guard <= search.point
        # a search whose whole range lies below its guard ends as it starts
        started = lpnorm._Search(cells._replace(guard=search.ceiling + 1.0),
                                 1e-10)
        assert isinstance(started.result, UnboundedNormError)

    def test_points_past_the_guard_skip_its_rounding(self):
        # at p = 1e300 a clipped cell's exponent rounds to about 3e284 at
        # this step function's guard itself, which would overflow exp():
        # the search never evaluates below the guard, and the point it
        # moves on to evaluates without an overflow
        grid = make_log_grid(1e-8, 401)
        (cells,) = lpnorm._prepare([step_family(grid)[3].f],
                                   Constant(1e300))
        search = lpnorm._Search(cells, 1e-10)
        search.update(0.0, 0.0)
        assert search.lo < cells.guard <= search.point < search.hi
        values, _ = lpnorm._evaluate(
            cells.rows, np.full(cells.size, search.point), [0])
        assert values[0] <= 1.0

    def test_evaluate_sees_no_sigma_below_a_guard(self, monkeypatch):
        # the searches open at each _evaluate call are its lockstep
        # group's, in order, with the group's rows side by side; at least
        # one point below a guard is taken, unevaluated, on the way
        made, skipped = [], []
        search, take, evaluate = (lpnorm._Search, lpnorm._Search._take,
                                  lpnorm._evaluate)

        def recorded(cells, tol):
            made.append(search(cells, tol))
            return made[-1]

        def counted(self, value, slope):
            skipped.append(self.point < self.cells.guard)
            take(self, value, slope)

        def checked(rows, sigma, starts):
            group = [s for s in made if s.result is None]
            assert [s.cells.size for s in group] == np.diff(
                starts, append=rows.shape[1]).tolist()
            for s, at in zip(group, sigma[starts].tolist()):
                assert at == s.point >= s.cells.guard
            return evaluate(rows, sigma, starts)

        monkeypatch.setattr(lpnorm, "_Search", recorded)
        monkeypatch.setattr(search, "_take", counted)
        monkeypatch.setattr(lpnorm, "_evaluate", checked)
        step = step_family(make_log_grid(1e-8, 401))[3].f
        assert luxemburg_norm(step, Constant(1e300)).value > 0.0
        p, jobs, _ = TestLockstepSolver.jobs()
        assert len(luxemburg_norms(jobs, p)) == len(jobs)
        assert any(skipped)


class TestBracket:
    def test_bracket_check_prepares_once(self, grid, monkeypatch):
        # its modular and its norm share one prepared job
        prepared = []
        original = lpnorm._prepare

        def counted(jobs, p):
            jobs = list(jobs)
            prepared.extend(jobs)
            return original(jobs, p)

        monkeypatch.setattr(lpnorm, "_prepare", counted)
        rep = bracket_check(power_function(grid, -0.3),
                            PiecewiseConstant((0.3,), (1.5, 2.5)))
        assert rep.passed and len(prepared) == 1

    def test_bracket_report_passes(self, grid):
        p = PiecewiseConstant((0.3,), (1.5, 2.5))
        f = power_function(grid, -0.2, coeff=0.7)
        rep = bracket_check(f, p)
        assert rep.passed, (rep.slack_lower, rep.slack_upper)

    def test_bracket_both_sides_of_one(self, grid):
        p = PiecewiseConstant((0.6,), (2.0, 3.0))
        for coeff in (0.05, 20.0):
            rep = bracket_check(power_function(grid, 0.1, coeff=coeff), p)
            assert rep.passed


def _norm_of_inverse_x(p, grid, a, delta=1.0):
    """||x^-1|| over (a, delta) as C5 takes it: ``inverse_x_scales`` on
    the one scale a, at sigma = ln phi(a)."""
    sigma = log_phi(p.eval(a), -math.log(a))
    ((_, _, nv),) = lpnorm.inverse_x_scales(p, grid, [a], [sigma], delta)
    return nv


class TestNormOfInverseX:
    @pytest.mark.parametrize("p0", [2.0, 30.0, 60.0])
    def test_closed_form_p_two(self, grid, p0):
        # ||1/x||_{L^p(a,1)} = ((a^{1-p} - 1)/(p - 1))^{1/p}, in log space;
        # for large p the nodes below a overflow and must not count
        for a in (0.25, 0.04):
            k = (p0 - 1.0) * math.log(1.0 / a)
            log_mod = k + math.log(-math.expm1(-k)) - math.log(p0 - 1.0)
            nv = _norm_of_inverse_x(Constant(p0), grid, a)
            assert nv.value == pytest.approx(math.exp(log_mod / p0),
                                             rel=1e-9)

    def test_p_one_log(self, grid):
        # L^1 norm of 1/x over (a,1) is ln(1/a)
        a = 2.0 ** -8
        nv = _norm_of_inverse_x(Constant(1.0), grid, a)
        assert nv.value == pytest.approx(math.log(1.0 / a), rel=1e-9)

    def test_delta_restriction(self, grid):
        nv = _norm_of_inverse_x(Constant(2.0), grid, 0.1, delta=0.5)
        assert nv.value == pytest.approx(math.sqrt(1.0 / 0.1 - 1.0 / 0.5),
                                         rel=1e-9)

    def test_deep_scale_guard_counts_dx(self):
        # ln(1/a) > EXP_GUARD: |f|**p alone passes the guard near a, but
        # the cell exponent p ln|f/lambda| + ln x does not
        a = 2.0 ** -1015
        nv = _norm_of_inverse_x(Constant(2.0), make_log_grid(1e-306, 4001),
                                a)
        k = math.log(1.0 / a)
        log_norm = 0.5 * (k + math.log(-math.expm1(-k)))
        assert math.log(nv.value) == pytest.approx(log_norm, rel=1e-9)

    def test_jump_inside_the_cell_below_a(self):
        # the jump at 1.85e-6 lies between a = 2^-19 and the node below
        # it, so that node carries p = 3 of (a, 1), not the 3.5 beyond
        a = 2.0 ** -19
        nv = _norm_of_inverse_x(PiecewiseConstant((1.85e-6,), (3.5, 3.0)),
                                make_log_grid(1e-8, 241), a)
        assert nv.value == pytest.approx(((a ** -2 - 1.0) / 2.0) ** (1 / 3),
                                         rel=1e-9)


class TestInverseXScales:
    """C2, C4 and C5 read each scale (a, delta) as a slice of p's one
    prepared x^-1, clipped at both ends (``inverse_x_scales``)."""

    @pytest.mark.parametrize("case", ["smooth", "dyadic jump at a",
                                      "jump on a node", "delta < 1"])
    def test_slices_are_the_prepared_scales(self, monkeypatch, case):
        # each scale's rows, guard and sup are bit for bit those of x^-1
        # prepared alone on (a, delta), and so are its integral and its
        # modular; the dyadic jumps at 2^-2^k fall exactly on scales a
        grid = make_log_grid(1e-8, 241)
        node = float(grid.points[150])
        p, delta = {
            "smooth": (LogPerturbed(2.0, 0.5, 1.0), 1.0),
            "dyadic jump at a": (DyadicJump(
                2.0, (0.5, 0.4, 0.3, 0.2), tuple(2.0 ** -(2 ** k)
                                                 for k in range(1, 5))), 1.0),
            "jump on a node": (PiecewiseConstant((node, 0.3), (2.5, 1.5, 3.0)),
                               1.0),
            "delta < 1": (PiecewiseConstant((0.0123,), (2.2, 1.8)), 0.3),
        }[case]
        p = on_grid(p, grid)
        a_list = [2.0 ** -j for j in range(1, 26) if 2.0 ** -j < delta]
        a_list += [node, float(grid.points[40]), float(grid.points[200])]
        a_list = [a for a in a_list if a < delta]
        sigmas = log_phi(p.p.eval(a_list), -np.log(a_list)).tolist()
        sigmas[1] = -1e3  # below its guard: the modular is inf, unevaluated
        solved, solve = [], lpnorm._solve

        def recorded(prepared, tol):
            prepared = list(prepared)
            solved.extend(prepared)
            return solve(prepared, tol)

        monkeypatch.setattr(lpnorm, "_solve", recorded)
        scales = lpnorm.inverse_x_scales(p, grid, a_list, sigmas, delta)
        monkeypatch.undo()
        below = 0
        for a, sigma, cells, (integral, mod, _) in zip(
                a_list, sigmas, solved, scales):
            (alone,) = lpnorm._prepare(inverse_x(grid, [a], delta), p)
            assert np.array_equal(cells.rows, alone.rows)
            assert (cells.guard, cells.sup) == (alone.guard, alone.sup)
            a_s, q_s, a_t, q_t, dt, _ = alone.rows
            assert integral == float(lpnorm._exp_cells(
                np.minimum(a_s / q_s, EXP_GUARD),
                np.minimum(a_t / q_t, EXP_GUARD), dt).sum())
            assert mod == (math.inf if sigma < alone.guard else float(
                np.add.reduceat(lpnorm._integrals(alone.rows, sigma), [0])[0]))
            # the guard counts the node below a, where that is not a
            nodes = grid.node_slice(a, delta)
            x = grid.points[nodes.start]
            if x < a:
                below += 1
                assert cells.guard >= (math.log(1.0 / x) + (
                    math.log(x) - EXP_GUARD) / p.p.eval(x)) - 1e-12
        assert below and len(solved) == len(a_list)
        assert scales[1][1] == math.inf

    def test_a_scale_of_no_width_has_no_cells(self):
        # ln a rounds to ln delta: f_a prepared alone has no cells, so its
        # integral, modular and norm are 0, and the other scales are as
        # they are without it
        grid = make_log_grid(1e-8, 241)
        p = on_grid(LogPerturbed(2.0, 0.5, 1.0), grid)
        delta = 0.12500000000000003
        assert math.log(0.125) == math.log(delta)
        (alone,) = lpnorm._prepare(inverse_x(grid, [0.125], delta), p)
        assert alone.size == 0 and alone.sup == 0.0
        a_list = [0.125, 2.0 ** -10]
        sigmas = log_phi(p.p.eval(a_list), -np.log(a_list)).tolist()
        empty, scale = lpnorm.inverse_x_scales(p, grid, a_list, sigmas, delta)
        assert empty == (0.0, 0.0, lpnorm.NormValue(0.0, 0.0, (0.0, 0.0)))
        assert [scale] == lpnorm.inverse_x_scales(p, grid, a_list[1:],
                                                  sigmas[1:], delta)


class TestCollapsedRuns:
    """The solver replaces each run of cells of one exponent q by one
    cell (``lpnorm._collapse``)."""

    def _jobs(self, grid):
        """(p, jobs) whose runs collapse: constant, step and tabulated p;
        Hardy averages with one-zero-end cells; supports that clip a
        cell's corner; |f| near 1e250; and p = 60."""
        tabulated = Tabulated((1e-3, 1e-2, 0.5), (2.0, 4.0, 1.5))
        step = PiecewiseConstant((2.0 ** -9, 0.01, 0.3), (1.5, 2.5, 2.0, 3.0))
        dyadic = [hardy_average(m.f) for m in dyadic_indicator_family(grid)[
            3:30:6]]
        out = []
        for p in (Constant(2.5), step, tabulated, Constant(60.0)):
            jobs = (dyadic
                    + [power_function(grid, -0.3, support=(0.0123, 0.77)),
                       power_function(grid, -0.3, coeff=1e250),
                       power_function(grid, 0.2, coeff=1e-3,
                                      support=(1e-5, 0.3))]
                    + inverse_x(grid, [2.0 ** -20, 0.0123], 1.0))
            out.append((on_grid(p, grid), jobs))
        return out

    def test_collapsed_jobs_keep_the_modular_and_slope(self):
        # at 20 sigma from each job's guard to its ceiling, the collapsed
        # cells' I and slope are the raw rows' sums within 1e-14, plus
        # the ulp of ln I that either form's exponents round by (1.1e-13
        # near the guard, where I ~ e^700); subnormal sums, which carry
        # few digits, count to the smallest normal double
        grid = make_log_grid(1e-8, 241)
        collapsed = 0
        for p, jobs in self._jobs(grid):
            for cells in lpnorm._prepare(jobs, p):
                ((_, short),) = lpnorm._collapse([(0, cells)])
                collapsed += short.size < cells.size
                search = lpnorm._Search(cells, 1e-10)
                low = max(cells.guard, search.floor)
                for sigma in np.linspace(low, search.ceiling, 20):
                    raw = lpnorm._integrals(cells.rows, sigma)
                    values = lpnorm._evaluate(
                        short.rows, np.full(short.size, sigma), [0])
                    for (got,), want in zip(values, (
                            math.fsum(raw), math.fsum(cells.rows[5] * raw))):
                        rel = 1e-14 + math.ulp(abs(math.log(want or 1.0)))
                        assert got == pytest.approx(
                            want, rel=rel, abs=sys.float_info.min)
        assert collapsed > 20

    def test_one_exponent_rows(self):
        # a job on a constant p is one cell per run, with q = p, and
        # keeps its guard, sup and heads
        grid = make_log_grid(1e-8, 241)
        f = power_function(grid, -0.3)
        (cells,) = lpnorm._prepare([f], Constant(2.5))
        ((_, short),) = lpnorm._collapse([(0, cells)])
        assert short.size == 1 and cells.size == grid.n - 1
        assert np.array_equal(short.rows[[1, 3, 5]], np.full((3, 1), 2.5))
        assert short.rows[0] == short.rows[2] == cells.rows[[0, 2]].max()
        assert short[1:] == cells[1:]

    def test_smooth_rows_pass_through(self):
        # no run of one exponent: every job keeps its rows, uncopied
        grid = make_log_grid(1e-8, 241)
        p = LogPerturbed(2.0, 1.0, 1.0)
        jobs = [m.f for m in power_family(p, grid)
                + necessity_family(p, grid, depth=12)]
        batch = list(enumerate(lpnorm._prepare(jobs, p)))
        out = lpnorm._collapse(batch)
        assert all(a is b for (_, a), (_, b) in zip(out, batch))

    def test_runs_never_cross_jobs(self):
        # two jobs on one constant p, each one run, side by side in one
        # batch: two cells, each its job's alone
        grid = make_log_grid(1e-8, 241)
        jobs = [power_function(grid, -0.3, support=(grid.x_min, 0.01)),
                power_function(grid, -0.3, support=(0.01, 1.0))]
        batch = list(enumerate(lpnorm._prepare(jobs, Constant(2.5))))
        out = lpnorm._collapse(batch)
        assert [cells.size for _, cells in out] == [1, 1]
        for (_, cells), job in zip(out, batch):
            ((_, alone),) = lpnorm._collapse([job])
            assert np.array_equal(cells.rows, alone.rows)

    @pytest.mark.parametrize("budget", [1, None, 10 ** 12])
    def test_batches_collapse_bit_for_bit(self, monkeypatch, budget):
        # each job's collapsed rows, and so its norm, are those it gets
        # solved alone, whatever the batch it is solved in
        grid = make_log_grid(1e-8, 241)
        for p, jobs in self._jobs(grid):
            alone = [lpnorm._collapse([(0, cells)])[0][1]
                     for cells in lpnorm._prepare(jobs, p)]
            singles = [luxemburg_norms([job], p)[0] for job in jobs]
            solved = []
            collapse = lpnorm._collapse

            def recorded(batch):
                out = collapse(batch)
                solved.extend(out)
                return out

            if budget is not None:
                monkeypatch.setattr(lpnorm, "_GROUP_CELLS", budget)
            monkeypatch.setattr(lpnorm, "_collapse", recorded)
            batch = luxemburg_norms(jobs, p)
            monkeypatch.undo()
            assert [k for k, _ in solved] == list(range(len(jobs)))
            for (_, cells), short in zip(solved, alone):
                assert np.array_equal(cells.rows, short.rows)
            assert batch == singles

    def test_step_exponent_audit_integrates_few_cells(self, monkeypatch):
        # a step exponent costs a few cells per norm: two audits on step
        # exponents with 4 and 6 jumps (509k cell rows each, uncollapsed)
        configs = [
            {"exponent": {"family": "dyadic-jump", "p0": 2.13301,
                          "gammas": [0.152457, 0.151174, 0.336938, 0.325547],
                          "scales": [0.00100907, 3.32005e-05, 2.0815e-07,
                                     3.79212e-11]}},
            {"exponent": {"family": "piecewise-constant",
                          "breakpoints": [2.02044e-11, 3.52837e-10,
                                          5.84064e-07, 7.08654e-06,
                                          0.000125831, 0.0232379],
                          "values": [2.19782, 2.55462, 2.76628, 2.97839,
                                     3.27294, 3.64393, 3.84473]}}]
        rows = []
        evaluate = lpnorm._evaluate

        def counted(cells, sigma, starts):
            rows.append(cells.shape[1])
            return evaluate(cells, sigma, starts)

        monkeypatch.setattr(lpnorm, "_evaluate", counted)
        for config in configs:
            rows.clear()
            run_scenario(parse_config(json.dumps(config)))
            assert 0 < sum(rows) <= 10_000
