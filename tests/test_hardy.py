import math
from dataclasses import replace

import numpy as np
import pytest

from hardyvx import (
    Constant,
    LogPerturbed,
    hardy_average,
    hardy_average_scaled,
    make_log_grid,
    modular,
    necessity_test_function,
    operator_norm_lower_bound,
    rayleigh_quotient,
)
from hardyvx import grids, hardy, lpnorm
from hardyvx.exponent import PiecewiseConstant
from hardyvx.grids import (DivergentHeadError, _cumulative_integrals,
                           as_segments)
from hardyvx.hardy import (
    FamilyMember,
    ResolutionError,
    _quotient,
    dyadic_indicator_family,
    necessity_family,
    power_family,
)
from hardyvx.lpnorm import (NormValue, UnboundedNormError, luxemburg_norm,
                            quotient_norms)

from conftest import power_function, step_family


class TestOperator:
    def test_power_closed_form(self, grid):
        # H(x^{-b})(x)/x = x^{-b}/(1-b)
        f = power_function(grid, -0.25)
        H = hardy_average(f)
        exact = grid.points ** -0.25 / 0.75
        assert np.max(np.abs(H.values / exact - 1.0)) < 1e-12

    def test_indicator_closed_form(self, grid):
        f = power_function(grid, 0.0, support=(0.25, 0.5))
        H = hardy_average(f)
        x = grid.points
        exact = np.where(x <= 0.25, 0.0,
                         np.where(x <= 0.5, (x - 0.25) / x, 0.25 / x))
        ok = exact > 0.0
        assert np.max(np.abs(H.values[ok] / exact[ok] - 1.0)) < 1e-9

    def test_dual_paths_agree_smooth(self, grid):
        p = LogPerturbed(2.0, 1.0, 0.5, "+")
        f = necessity_test_function(p, grid, 2.0 ** -6)
        H1 = hardy_average(f).values
        H2 = hardy_average_scaled(f).values
        ok = H1 > 0.0
        assert np.max(np.abs(H2[ok] / H1[ok] - 1.0)) < 1e-6


class TestBatchedAverages:
    def _functions(self, grid):
        p = PiecewiseConstant((2.0 ** -9, 0.1), (2.0, 2.6, 3.0))
        return ([m.f for m in power_family(p, grid)[::3]]
                + [m.f for m in necessity_family(p, grid, depth=14)[::2]]
                + [m.f for m in dyadic_indicator_family(grid)[::4]]
                + [m.f for m in step_family(grid)[:2]])

    def test_batch_matches_single_functions(self, coarse_grid):
        # one pass's running totals cover each function's own node range,
        # from its lowest segment's first node to its highest's last, and
        # past it keep its last value; padded so, each divided by x is the
        # function's Hardy average
        grid = coarse_grid
        fs = self._functions(grid)
        totals, firsts, lengths, errors = _cumulative_integrals(fs)
        assert errors == [None] * len(fs)
        assert totals.shape == (len(fs), max(lengths))
        for f, row, first, length in zip(fs, totals, firsts, lengths):
            slices = [grid.node_slice(max(lo, grid.x_min), min(hi, 1.0))
                      for lo, hi in (seg.effective_support()
                                     for seg in as_segments(f))]
            assert first == min(s.start for s in slices)
            assert first + length == max(s.stop for s in slices)
            assert np.all(row[length:] == row[length - 1])
            padded = np.concatenate((np.zeros(first), row[:length],
                                     np.full(grid.n - first - length,
                                             row[length - 1])))
            assert np.array_equal(padded / grid.points,
                                  hardy_average(f).values)

    @pytest.mark.parametrize("budget", [1, 3 * 401, 10 ** 12])
    def test_chunks_do_not_change_quotients(self, coarse_grid, monkeypatch,
                                            budget):
        # a member whose head diverges, in mid-batch, is skipped alone
        fs = self._functions(coarse_grid)
        fs.insert(len(fs) // 2, power_function(coarse_grid, -1.2))
        p = Constant(2.0)
        reference = [_quotient(den, num)
                     for _, den, num in quotient_norms(fs, p)]
        monkeypatch.setattr(lpnorm, "_GROUP_CELLS", budget)
        chunked = [_quotient(den, num)
                   for _, den, num in quotient_norms(fs, p)]
        for k, (f, ref, got) in enumerate(zip(fs, reference, chunked)):
            if k == len(fs) // 2:
                assert isinstance(got, DivergentHeadError)
                assert "diverges" in str(got)
                continue
            assert got == ref == rayleigh_quotient(f, p)


class TestRayleigh:
    def test_constant_exponent_quotient(self, grid):
        # for p = 2 and f = x^{-b}: quotient = 1/(1-b)
        f = power_function(grid, -0.3)
        q = rayleigh_quotient(f, Constant(2.0))
        assert q.value == pytest.approx(1.0 / 0.7, rel=1e-9)
        lo, hi = q.bounds
        assert lo <= q.value <= hi

    def test_zero_function_rejected(self, grid):
        f = power_function(grid, 0.0, coeff=0.0)
        f = f.__class__(grid, np.zeros(grid.n))
        with pytest.raises(ZeroDivisionError):
            rayleigh_quotient(f, Constant(2.0))

    def test_quotient_skip_order(self):
        # the sweep's skip order: an unbounded denominator, a zero one, a
        # divergent Hardy head, an unbounded numerator
        one = NormValue(1.0, 1e-10, (1.0 - 1e-10, 1.0))
        two = NormValue(2.0, 1e-10, (2.0 - 2e-10, 2.0))
        zero = NormValue(0.0, 0.0, (0.0, 0.0))
        unbounded, head = UnboundedNormError("den"), DivergentHeadError("h")
        numerator = UnboundedNormError("num")
        assert _quotient(unbounded, head) is unbounded
        assert isinstance(_quotient(zero, numerator), ZeroDivisionError)
        assert isinstance(_quotient(zero, head), ZeroDivisionError)
        assert _quotient(one, head) is head
        assert _quotient(one, numerator) is numerator
        assert _quotient(one, two).value == 2.0

    def test_function_outside_the_space_keeps_its_quotient(self, grid,
                                                            caplog):
        # x^-0.6 has |f|^2 = x^-1.2, whose head below x_min diverges: the
        # public quotient is still the grid's, the sweep skips the member
        f, p = power_function(grid, -0.6), Constant(2.0)
        q = rayleigh_quotient(f, p)
        assert q.value == (luxemburg_norm(hardy_average(f), p).value
                           / luxemburg_norm(f, p).value)
        with caplog.at_level("INFO", logger="hardyvx.hardy"):
            res = operator_norm_lower_bound(p, [FamilyMember("x^-0.6", f)])
        assert res.skipped == ["x^-0.6"] and math.isnan(res.value)
        assert "skipping x^-0.6: infinite modular" in caplog.messages


class TestFamilies:
    def test_power_family_respects_integrability(self, grid):
        members = power_family(Constant(2.0), grid)
        betas = [float(m.label.split("=")[1]) for m in members]
        assert max(betas) == pytest.approx(0.49)
        assert all(0.0 < b < 0.5 for b in betas)

    def test_dyadic_family_levels(self, grid):
        members = dyadic_indicator_family(grid)
        assert members[0].level == 1
        assert len(members) >= 30

    def test_necessity_function_modular_is_log2(self, grid):
        p = LogPerturbed(2.0, 1.0, 1.0, "+")
        f = necessity_test_function(p, grid, 2.0 ** -15)
        assert modular(f, p).value == pytest.approx(math.log(2.0), rel=1e-9)

    def test_necessity_resolution_guard(self):
        grid = make_log_grid(1e-12, 41)  # ~1.5 points per octave
        with pytest.raises(ResolutionError):
            necessity_test_function(Constant(2.0), grid, 2.0 ** -10)


class TestOperatorNorm:
    def test_skips_members_with_infinite_modular(self, grid):
        # beta = 0.49 under p = 3 gives modular exponent -1.47: divergent
        members = power_family(Constant(2.0), grid)
        res = operator_norm_lower_bound(Constant(3.0), members)
        assert any("beta=0.49" in s for s in res.skipped)
        assert res.value > 1.0

    @staticmethod
    def _count_preparation(monkeypatch):
        """Record, as C1 runs, each function that enters ``_prepare``, each
        running total ``_cumulative_integrals`` takes with the nodes its
        cells are integrated over, each row ``_average_cells`` cuts and each
        job the solver takes.  Jobs are cut from p's layout many per call,
        so they are counted where they enter, not calls; a job cut once
        ``_average_cells`` has started is a numerator's own part or the
        x^-1 its tail is read from, since every denominator enters the
        solver first."""
        seen = {"prepared": [], "integrated": [], "nodes": [], "rows": [],
                "solved": []}
        prepare, cut, solve = lpnorm._prepare, lpnorm._cut, lpnorm._solve
        average, cell_integrals = lpnorm._average_cells, grids._cell_integrals
        averaging, totalling = [], []

        def counted(jobs, p):
            def each():
                for job in jobs:
                    seen["prepared"].append(job)
                    yield job
            return prepare(each(), p)

        def integrated(u, *args, **kwargs):
            if totalling:
                seen["nodes"].append(u)
            return cell_integrals(u, *args, **kwargs)

        def totals(fs):
            seen["integrated"].extend(fs)
            totalling.append(True)
            try:
                return _cumulative_integrals(fs)
            finally:
                totalling.pop()

        def averages(fs, p):
            averaging.append(True)
            yield from average(fs, p)

        def cut_rows(p, batch):
            if averaging:
                seen["rows"].extend(batch)
            return cut(p, batch)

        def solved(prepared, tol):
            def each():
                for cells in prepared:
                    seen["solved"].append(cells)
                    yield cells
            return solve(each(), tol)

        monkeypatch.setattr(lpnorm, "_prepare", counted)
        monkeypatch.setattr(lpnorm, "_average_cells", averages)
        monkeypatch.setattr(lpnorm, "_cut", cut_rows)
        monkeypatch.setattr(lpnorm, "_solve", solved)
        monkeypatch.setattr(lpnorm, "_cumulative_integrals", totals)
        monkeypatch.setattr(grids, "_cell_integrals", integrated)
        return seen

    def test_each_member_prepared_once(self, grid, monkeypatch):
        # one prepared job per member serves its modular check, truncation
        # bias and denominator; each numerator is one row cut from its
        # running totals over its own node range, and a tail read from the
        # one x^-1 prepared for p on the grid
        seen = self._count_preparation(monkeypatch)
        p = LogPerturbed(2.0, 0.5, 1.0)
        members = necessity_family(p, grid) + dyadic_indicator_family(grid)
        res = operator_norm_lower_bound(p, members)
        assert not res.skipped and len(res.quotients) == len(members)
        assert len(seen["prepared"]) == len(members)
        assert len(seen["rows"]) == len(members) + 1
        assert len(seen["integrated"]) == len(members)
        for member in members:
            assert sum(f is member.f for f in seen["prepared"]) == 1
            assert sum(f is member.f for f in seen["integrated"]) == 1
        # the cumulative pass integrates each segment's node slice, which
        # lies in its member's own node range, and no node past it
        slices = [grid.node_slice(*seg.effective_support())
                  for m in members for seg in as_segments(m.f)]
        (u,) = seen["nodes"]
        assert np.array_equal(u, np.concatenate([grid.u[s] for s in slices]))
        assert u.size < len(slices) * grid.n // 10

    def test_power_member_takes_its_modular_alone(self, grid, monkeypatch):
        # a power member's quotient is 1/(1 - beta): its one prepared job
        # is its public modular, and it has no average and no norm solve
        modulars = []

        def counted_modular(f, p):
            modulars.append(f)
            return lpnorm.modular(f, p)

        seen = self._count_preparation(monkeypatch)
        monkeypatch.setattr(hardy, "modular", counted_modular)
        p = LogPerturbed(2.0, 0.5, 1.0)
        members = power_family(p, grid)
        res = operator_norm_lower_bound(p, members)
        assert not res.skipped and len(res.quotients) == len(members)
        assert len(modulars) == len(seen["prepared"]) == len(members)
        for member, f, job in zip(members, modulars, seen["prepared"]):
            (segment,) = as_segments(job)
            assert f is member.f and segment is member.f
        assert seen["integrated"] == seen["rows"] == seen["solved"] == []
        for member, (label, level, value, lo, hi) in zip(members,
                                                         res.quotients):
            assert (label, level) == (member.label, None)
            assert value == lo == hi == 1.0 / (1.0 - member.beta)

    def test_members_outside_the_space_solve_without_overflow(self):
        # at p = 1e300 every step member, reaching above 1, has an infinite
        # modular; its norms are still solved, with no overflow (a
        # RuntimeWarning the suite turns into an error), before it is
        # skipped
        grid = make_log_grid(1e-8, 401)
        members = step_family(grid)
        res = operator_norm_lower_bound(Constant(1e300), members)
        assert res.skipped == [m.label for m in members]

    @pytest.mark.xfail(raises=RuntimeWarning, strict=True, reason=(
        "ROADMAP item 7: at p = 1e300 a cell exponent a - sigma q cancels "
        "and the prepared cells overflow exp"))
    def test_steps_on_a_huge_p_piece_solve_without_overflow(self):
        # the constant 1e300 stays clean (the test above); a piece of it
        # next to p = 2 does not yet
        grid = make_log_grid(1e-8, 401)
        p = PiecewiseConstant((0.01,), (1e300, 2.0))
        operator_norm_lower_bound(p, step_family(grid))

    def test_sweep_solves_once_denominators_first(self, grid, monkeypatch):
        # every member's denominator, then every numerator, in one stream
        # into one lockstep solve
        calls, prepared, averaged = [], [], []
        prepare, average = lpnorm._prepare, lpnorm._average_cells
        solve = lpnorm._solve

        def recorded(source, seen):
            def wrapper(fs, p):
                for cells in source(fs, p):
                    seen.append(cells)
                    yield cells
            return wrapper

        def solved(jobs, tol):
            calls.append([])
            for cells in jobs:
                calls[-1].append(cells)
            return solve(calls[-1], tol)

        monkeypatch.setattr(lpnorm, "_prepare", recorded(prepare, prepared))
        monkeypatch.setattr(lpnorm, "_average_cells",
                            recorded(average, averaged))
        monkeypatch.setattr(lpnorm, "_solve", solved)
        p = PiecewiseConstant((2.0 ** -9, 0.1), (2.0, 2.6, 3.0))
        members = (necessity_family(p, grid) + dyadic_indicator_family(grid)
                   + step_family(grid))
        res = operator_norm_lower_bound(p, members)
        assert len(res.quotients) == len(members)
        assert len(calls) == 1
        assert len(prepared) == len(averaged) == len(members)
        assert all(a is b for a, b in zip(calls[0], prepared + averaged))
        assert len(calls[0]) == 2 * len(members)

    @pytest.mark.parametrize("p", [
        Constant(2.0),
        LogPerturbed(2.0, 1.0, 0.5),
        PiecewiseConstant((0.1, 0.5), (3.0, 2.0, 1.5)),
        LogPerturbed(1.0, 1.0, 0.5),  # p_minus = 1: beta reaches 0.99
    ])
    @pytest.mark.parametrize("x_min", [None, 1e-300])
    def test_power_quotients_match_the_numeric_path(self, grid, p, x_min):
        # H(x^-beta)(x)/x = x^-beta/(1 - beta) and norms are homogeneous;
        # a member is skipped exactly where the numeric path fails on it:
        # its modular or head is infinite, or its quotient raises
        if x_min is not None:
            grid = make_log_grid(x_min, 1201)
        members = power_family(p, grid)
        res = operator_norm_lower_bound(p, members)
        numeric = operator_norm_lower_bound(
            p, [replace(m, beta=None) for m in members])
        assert res.skipped == numeric.skipped
        assert members[-1].beta == pytest.approx(1.0 / p.bounds((0.0, 1.0))[0]
                                                 - 0.01)
        quotients = {q[0]: q[2] for q in res.quotients}
        for member in members:
            mv = modular(member.f, p)
            try:
                reference = rayleigh_quotient(member.f, p).value
            except (ArithmeticError, DivergentHeadError):
                reference = None
            fails = (reference is None or not mv.finite
                     or math.isinf(mv.truncation_bias))
            assert (member.label in res.skipped) == fails
            if not fails:
                assert quotients[member.label] == pytest.approx(reference,
                                                                rel=1e-10)

    def test_level_series(self, grid):
        members = dyadic_indicator_family(grid)[:6]
        res = operator_norm_lower_bound(Constant(2.0), members)
        levels, series = res.level_series()
        assert levels == [1, 2, 3, 4, 5, 6]
        assert all(v > 0.0 for v in series)
