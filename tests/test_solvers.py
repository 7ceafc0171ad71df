"""Solver loop behavior: convergence, monotonicity, case labels, CSV traces."""

import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from fwpoly.directions import (
    KIND_AWAY,
    KIND_BPFW,
    KIND_FW,
    KIND_IN_AWAY,
    KIND_IN_BPFW,
    KIND_PW,
)
from fwpoly.instances import (
    fw_power4,
    fw_segment,
    fwipw_mid,
    fwipw_simplex5,
    interior_quadratic,
    wolfe_edge,
)
from fwpoly.active_set import ActiveSet
from fwpoly.objectives import Objective, PowerDistance, Quadratic, distance_squared
from fwpoly.polytope import Box, PolytopeError, Simplex
from fwpoly.solvers import CSV_CHUNK_ROWS, CSV_COLUMNS, IterRecord, solve

from conftest import trace_of

S3 = Simplex(3)


def run_instance(inst, variant, step="ls", **kw):
    kw.setdefault("x0", inst.x0)
    kw.setdefault("fstar", inst.fstar)
    if step in ("ss", "pow2"):
        kw.setdefault("L", inst.L)
    return solve(inst.poly, inst.obj, variant, step=step, **kw)


class TestConvergence:
    def test_fw_interior(self):
        tr = run_instance(interior_quadratic(), "FW", gap_tol=1e-6, max_iters=5000)
        assert tr.terminal_reason == "gap_tol"
        assert tr.fw_gap_final <= 1e-6
        assert tr.f_final - tr.fstar <= 1e-6

    @pytest.mark.parametrize("variant", ["AFW", "BPFW", "IFW"])
    def test_active_variants_edge_optimum(self, variant):
        tr = run_instance(wolfe_edge(), variant, gap_tol=1e-10, max_iters=1000)
        assert tr.terminal_reason == "gap_tol"
        assert tr.f_final == pytest.approx(-1.6, abs=1e-9)

    def test_fwipw_converges(self):
        tr = run_instance(fwipw_mid(), "FWIPW", step="pow2", gap_tol=1e-10,
                          max_iters=1000)
        assert tr.terminal_reason == "gap_tol"
        assert tr.f_final - tr.fstar <= 1e-9

    def test_short_step_matches_line_search_optimum(self):
        tr = run_instance(wolfe_edge(), "AFW", step="ss", gap_tol=1e-10,
                          max_iters=2000)
        assert tr.f_final == pytest.approx(-1.6, abs=1e-9)


class TestMonotonicityAndCases:
    def test_line_search_monotone(self):
        tr = run_instance(wolfe_edge(), "AFW", gap_tol=1e-10)
        tr.assert_monotone()

    def test_short_step_monotone(self):
        tr = run_instance(interior_quadratic(), "FW", step="ss", gap_tol=1e-8,
                          max_iters=3000)
        tr.assert_monotone()

    def test_fw_never_case_three(self):
        tr = run_instance(fw_segment(), "FW", step="ss", gap_tol=1e-12,
                          max_iters=300)
        assert all(r.case in (1, 2) for r in tr.records)

    def test_case_labels_consistent(self):
        tr = run_instance(wolfe_edge(), "AFW", step="ss", gap_tol=1e-10,
                          max_iters=2000)
        for r in tr.records:
            if r.case == 1:
                assert r.eta < r.eta_max - 1e-12
            else:
                assert abs(r.eta - r.eta_max) <= 1e-12
                assert (r.eta_max >= 1.0) == (r.case == 2)

    def test_away_drop_appears(self):
        # the pinned vertex start forces at least one cap-hitting away step
        tr = run_instance(wolfe_edge(), "AFW", step="ss", gap_tol=1e-10,
                          max_iters=2000)
        assert any(r.case == 3 for r in tr.records)


def csv_writer_bytes(trace):
    """The trace CSV as the csv module writes the same fields."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in trace.records:
        f_gap = "" if r.f_gap is None else repr(r.f_gap)
        w.writerow([r.t, repr(r.f_val), f_gap, repr(r.fw_gap), r.case,
                    repr(r.eta), r.step_kind, r.support_or_face_dim])
    return buf.getvalue().encode()


class TestTraceAndCsv:
    def test_csv_layout(self, tmp_path):
        tr = run_instance(interior_quadratic(), "FW", gap_tol=1e-6, max_iters=50)
        p = tmp_path / "trace.csv"
        tr.to_csv(p)
        rows = list(csv.reader(io.StringIO(p.read_text())))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == len(tr.records) + 1
        first = rows[1]
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(tr.records[0].f_val)
        assert first[6] == "FW"

    def test_csv_empty_gap_without_fstar(self, tmp_path):
        tr = solve(S3, distance_squared(np.array([0.2, 0.3, 0.5])), "FW",
                   gap_tol=1e-4, max_iters=50)
        p = tmp_path / "trace.csv"
        tr.to_csv(p)
        rows = list(csv.reader(io.StringIO(p.read_text())))
        assert all(r[2] == "" for r in rows[1:])

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            run_instance(wolfe_edge(), "BPFW", gap_tol=1e-10).to_csv(p)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # every float edge repr, every step kind, an empty and a known f_gap
        # and integers past 10**6, against the csv module writing the same
        # fields (t is the row index, so the large integers are counts)
        specials = (-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300,
                    -1e300, 0.1, 1 / 3, 2.0 ** -52)
        kinds = (KIND_FW, KIND_AWAY, KIND_BPFW, KIND_IN_AWAY, KIND_IN_BPFW, KIND_PW)
        records = [IterRecord(
            t=i, f_val=f_val, f_gap=None, fw_gap=specials[(i + 1) % len(specials)],
            case=1 + i % 3, step_kind=kinds[i % len(kinds)],
            eta=specials[(i + 2) % len(specials)], eta_max=1.0, inner=-1.0,
            support_or_face_dim=i * 1000 if i < 6 else 10**6 + 10**i)
            for i, f_val in enumerate(specials)]
        for fstar in (None, 0.0, 0.1):
            tr = trace_of(records, fstar=fstar)
            p = tmp_path / "trace.csv"
            tr.to_csv(p)
            assert p.read_bytes() == csv_writer_bytes(tr)

    def test_real_trace_bytes_match_csv_writer(self, tmp_path):
        # the zigzagging FW run is longer than one chunk of to_csv's rows
        for variant, step, max_iters, longer_than in (
                ("AFW", "ss", 2000, 5), ("FW", "ls", CSV_CHUNK_ROWS + 100, CSV_CHUNK_ROWS)):
            for fstar in (wolfe_edge().fstar, None):
                tr = run_instance(wolfe_edge(), variant, step=step, gap_tol=1e-10,
                                  max_iters=max_iters, fstar=fstar)
                assert len(tr.records) > longer_than
                p = tmp_path / "trace.csv"
                tr.to_csv(p)
                assert p.read_bytes() == csv_writer_bytes(tr)

    def test_gap_series_shape(self):
        tr = run_instance(fw_segment(), "FW", step="ss", gap_tol=1e-10,
                          max_iters=200)
        ts, gaps = tr.gap_series()
        assert len(ts) == len(tr.records) + 1
        assert gaps[-1] == pytest.approx(tr.f_final - tr.fstar)
        assert np.all(np.diff(ts) > 0)

    def test_gap_series_needs_fstar(self):
        tr = solve(S3, distance_squared(np.array([0.2, 0.3, 0.5])), "FW",
                   gap_tol=1e-4, max_iters=20)
        with pytest.raises(ValueError):
            tr.gap_series()

    def test_record_points_toggle(self):
        tr = run_instance(fw_segment(), "FW", gap_tol=1e-8, max_iters=60,
                          record_points=True)
        assert all(r.x is not None for r in tr.records)
        tr2 = run_instance(fw_segment(), "FW", gap_tol=1e-8, max_iters=60)
        assert all(r.x is None for r in tr2.records)
        assert tr.points.shape == (len(tr.records), 2) and tr2.points is None

    @pytest.mark.parametrize("variant, step, columns", [
        ("FW", "ls", ()), ("AFW", "ss", ("strong_gap",)),
        ("IFW", "ss", ("strong_gap",)), ("FWIPW", "pow2", ("strong_gap", "gamma"))])
    def test_records_view_the_columns(self, variant, step, columns):
        inst = fwipw_mid() if variant == "FWIPW" else wolfe_edge()
        tr = run_instance(inst, variant, step=step, max_iters=40, record_points=True)
        recs, n = tr.records, len(tr.f_val)
        assert 0 < len(recs) == n
        assert [name for name in ("strong_gap", "gamma")
                if getattr(tr, name) is not None] == list(columns)
        bare = lambda r: dataclasses.replace(r, x=None)  # noqa: E731
        for t, r in enumerate(recs):
            assert bare(r) == bare(recs[t - n]) == bare(recs[t:t + 1][0])
            assert (r.t, r.f_val, r.f_gap, r.eta, r.case, r.step_kind) == (
                t, tr.f_val[t], tr.f_val[t] - tr.fstar, tr.eta[t], tr.case[t],
                tr.step_kind[t])
            assert np.array_equal(r.x, tr.points[t])
            assert all(type(getattr(r, name)) is float
                       for name in ("f_val", "f_gap", "fw_gap", "eta", "eta_max", "inner")
                       + columns)
            assert type(r.case) is type(r.support_or_face_dim) is int
        assert [r.t for r in recs[::-3]] == list(range(n))[::-3]
        with pytest.raises(IndexError):
            recs[n]

    def test_trace_data_is_read_only(self):
        tr = run_instance(fwipw_mid(), "FWIPW", step="pow2", max_iters=10,
                          record_points=True)
        for name in ("f_val", "fw_gap", "case", "eta", "eta_max", "inner",
                     "support_or_face_dim", "strong_gap", "gamma", "points"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(tr, name)[0] = 0
        with pytest.raises(TypeError):
            tr.step_kind[0] = KIND_FW
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.f_val = tr.f_val.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.records[0].f_val = 0.0

    def test_columns_hold_about_a_fifth_of_a_record_object(self):
        # wolfe_edge FW with points: one IterRecord object per step took 480
        # bytes; the columns take about 90
        inst = wolfe_edge()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tr = run_instance(inst, "FW", max_iters=5000, record_points=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tr.records) == 5000
        assert held / 5000 <= 160


class TestStartAndTermination:
    def test_x0_threads_through(self):
        x0 = np.array([0.0, 0.0, 1.0])
        tr = solve(S3, distance_squared(np.array([0.2, 0.3, 0.5])), "FW",
                   x0=x0, gap_tol=1e-6, max_iters=500, record_points=True)
        assert np.allclose(tr.records[0].x, x0)

    def test_max_iters_reason(self):
        tr = run_instance(interior_quadratic(), "FW", gap_tol=1e-12, max_iters=3)
        assert tr.terminal_reason == "max_iters"
        assert len(tr.records) == 3

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("variant", ["FW", "AFW", "BPFW", "IFW"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gradient_reason(self, variant, bad):
        class Broken(Objective):
            def value(self, x):
                return 0.0

            def grad(self, x):
                return np.full(x.shape, bad)

        tr = solve(S3, Broken(), variant, step="ls", max_iters=50)
        assert tr.terminal_reason == "nonfinite"
        assert len(tr.records) == 0

    def test_fwipw_eta_powers_nonincreasing(self):
        tr = run_instance(fwipw_mid(), "FWIPW", step="pow2", gap_tol=1e-10,
                          max_iters=1000)
        etas = [r.eta for r in tr.records if r.eta > 0]
        assert all(b <= a for a, b in zip(etas, etas[1:]))
        for e in etas:
            assert np.log2(e) == pytest.approx(round(np.log2(e)), abs=1e-12)


    @pytest.mark.parametrize("factory", [fwipw_mid, fwipw_simplex5])
    def test_fwipw_stops_at_precision_floor(self, factory):
        # below 2^-52 every coordinate of a 0/1-polytope point is a multiple
        # of the step, so the integrality check could no longer fail
        tr = run_instance(factory(), "FWIPW", step="pow2", gap_tol=1e-30,
                          max_iters=5000)
        assert tr.terminal_reason == "precision_floor"
        assert all(r.eta > 2.0 ** -52 for r in tr.records)
        assert len(tr.records) < 500


class TestValidation:
    OBJ = distance_squared(np.array([0.2, 0.3, 0.5]))

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'PGD'"):
            solve(S3, self.OBJ, "PGD")

    def test_fwipw_needs_pow2(self):
        with pytest.raises(ValueError, match="FWIPW requires the pow2 step rule"):
            solve(S3, self.OBJ, "FWIPW", step="ls")

    def test_negative_max_iters(self):
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            solve(S3, self.OBJ, "FW", max_iters=-3)

    @pytest.mark.parametrize("gap_tol", [0.0, -1e-8, float("nan")])
    def test_nonpositive_gap_tol(self, gap_tol):
        with pytest.raises(ValueError, match="gap_tol must be positive"):
            solve(S3, self.OBJ, "FW", gap_tol=gap_tol)

    @pytest.mark.parametrize("variant, step, L", [
        ("FW", "ss", float("nan")), ("FW", "ss", float("inf")),
        ("AFW", "ss", float("nan")), ("FWIPW", "pow2", float("nan")),
    ])
    def test_nonfinite_L_rejected_up_front(self, variant, step, L):
        # NaN used to fail later as "iterate left the polytope"; inf made
        # every short step 0 and ran on to max_iters
        inst = fwipw_mid()
        with pytest.raises(ValueError, match="needs a finite L > 0"):
            solve(inst.poly, inst.obj, variant, step=step, L=L)

    @pytest.mark.parametrize("obj", [
        PowerDistance([0.5], 4), PowerDistance([0.5, 0.5], 2),
        Quadratic(np.eye(2), np.zeros(2)), Quadratic(np.eye(4), np.zeros(4))])
    @pytest.mark.parametrize("step", ["ls", "ss"])
    def test_objective_of_another_dimension(self, obj, step):
        # a 1-element centre broadcast over the simplex and stopped at gap_tol
        # at the wrong point; a Quadratic raised numpy's matmul error
        with pytest.raises(ValueError, match=f"objective has dimension {obj.n}, "
                                             "the polytope 3"):
            solve(S3, obj, "FW", step=step)

    def test_objective_dimension_checked_before_the_curvature_constant(self):
        # L for a power distance on this box needs 2^70 vertices
        with pytest.raises(ValueError, match="objective has dimension 3"):
            solve(Box(np.zeros(70), np.ones(70)), PowerDistance(np.zeros(3), 4), "FW",
                  step="ss")

    def test_pow2_only_for_fwipw(self):
        with pytest.raises(ValueError, match="the pow2 step rule is specific to FWIPW"):
            solve(S3, self.OBJ, "FW", step="pow2")

    def test_fwipw_rejects_plain_simplex(self):
        with pytest.raises(PolytopeError):
            solve(S3, self.OBJ, "FWIPW", step="pow2")

    def test_fwipw_rejects_nonvertex_start(self):
        inst = fwipw_mid()
        with pytest.raises(PolytopeError):
            solve(inst.poly, inst.obj, "FWIPW", step="pow2", L=inst.L,
                  x0=np.array([0.5, 0.5, 0.0]))

    def test_infeasible_x0_rejected(self):
        # this was "iterate left the polytope at t=0", for IFW too
        with pytest.raises(PolytopeError, match="x0 is not in the polytope"):
            solve(S3, self.OBJ, "FW", x0=np.array([2.0, 0.0, 0.0]))

    def test_infeasible_x0_rejected_by_ifw(self):
        with pytest.raises(PolytopeError, match="x0 is not in the polytope"):
            solve(S3, self.OBJ, "IFW", x0=np.array([2.0, 0.0, 0.0]))

    def test_fractional_max_iters(self):
        # range() raised a TypeError
        with pytest.raises(ValueError, match="max_iters must be a whole number, got 2.5"):
            solve(S3, self.OBJ, "FW", max_iters=2.5)

    @pytest.mark.parametrize("variant, step, kwargs, message", [
        ("nope", "ss", {}, "unknown variant 'NOPE'"),
        ("FW", "ss", {"gap_tol": 0.0}, "gap_tol must be positive"),
        ("FW", "ss", {"max_iters": -1}, "max_iters must be nonnegative"),
        ("FWIPW", "ss", {}, "FWIPW requires the pow2 step rule"),
        ("FW", "pow2", {}, "the pow2 step rule is specific to FWIPW"),
    ])
    def test_arguments_checked_before_the_curvature_constant(self, variant, step,
                                                             kwargs, message):
        # L for a power distance needs every vertex of the box: 2^70 of them
        box = Box(np.zeros(70), np.ones(70))
        with pytest.raises(ValueError, match=message):
            solve(box, PowerDistance(np.zeros(70), 4), variant, step=step, **kwargs)


class TestExactVertexIdentity:
    """A vertex is its exact coordinates, at any scale and from any start.

    Support rows match only when every coordinate is equal.  The corners
    of TINY_BOX differ by 1e-13, below any fixed number of decimal places a
    lookup could round to.
    """

    TINY_BOX = Box([0.0, 0.0], [1e-13, 1e-13])
    TARGET = np.array([3e-14, 6e-14])

    @pytest.mark.parametrize("variant", ["AFW", "BPFW"])
    def test_tiny_box_reaches_the_target(self, variant):
        tr = solve(self.TINY_BOX, distance_squared(self.TARGET), variant,
                   max_iters=200, gap_tol=1e-40)
        assert tr.terminal_reason == "gap_tol"
        err = np.linalg.norm(tr.x_final - self.TARGET)
        assert err <= 1e-9 * self.TINY_BOX.diameter()

    def test_drift_on_a_tiny_box_raises(self, monkeypatch):
        # a support point 1e-16 off is 1000 box widths away: the drift check
        # must see it although it is far below an absolute 1e-10
        exact = ActiveSet.point
        monkeypatch.setattr(ActiveSet, "point",
                            property(lambda aset: exact.fget(aset) + 1e-16))
        with pytest.raises(PolytopeError, match="drifted by .* at t=0"):
            solve(self.TINY_BOX, distance_squared(self.TARGET), "AFW",
                  max_iters=200, gap_tol=1e-40)

    @pytest.mark.parametrize("step", ["ls", "ss"])
    @pytest.mark.parametrize("variant", ["AFW", "BPFW"])
    def test_start_typed_as_decimals_writes_the_same_trace(self, variant, step,
                                                           tmp_path):
        inst = wolfe_edge()
        out = []
        for i, x0 in enumerate([inst.x0, np.array([1e-12, 1e-12, 1.0 - 2e-12])]):
            tr = run_instance(inst, variant, step=step, x0=x0, gap_tol=1e-10,
                              max_iters=300)
            path = tmp_path / f"trace{i}.csv"
            tr.to_csv(path)
            out.append(path.read_bytes())
        assert out[0] == out[1]


class TestOracleCounts:
    """The zigzag runs make one call of each oracle per iteration.

    Except for a quadratic, whose run-local evaluation keeps y = Qx and
    makes one product per iteration in place of a gradient and a value.

    Around the loop there is a fixed overhead: the start point's
    feasibility check (and the LMO that picks the default start vertex),
    then the final gradient, LMO and value of the returned trace.
    """

    ITERS = 300

    def _count(self, monkeypatch, counts, owner, names):
        for name in names:
            counts[name] = 0
            orig = getattr(owner, name)

            def counted(*args, _name=name, _orig=orig, **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

    def _run(self, monkeypatch, inst, step):
        counts = {}
        self._count(monkeypatch, counts, inst.obj, ("grad", "value"))
        self._count(monkeypatch, counts, inst.poly, ("lmo", "contains"))
        if hasattr(inst.obj, "curvature_along"):
            self._count(monkeypatch, counts, inst.obj, ("curvature_along", "product"))
        tr = run_instance(inst, "FW", step=step, gap_tol=1e-12, max_iters=self.ITERS)
        assert tr.terminal_reason == "max_iters"
        assert len(tr.records) == self.ITERS
        return counts

    def test_wolfe_edge_fw_line_search(self, monkeypatch):
        counts = self._run(monkeypatch, wolfe_edge(), "ls")
        T = self.ITERS
        # x0 is pinned: one start check.  The run keeps y = Qx, so each step
        # takes one product Qd (the line model's, reused for y) and no
        # gradient, value or curvature call; the exact grad and value of the
        # returned trace come at the end.  FW steps have cap 1, so no drop
        # step refreshes y.
        assert counts == {"grad": 1, "value": 1, "lmo": T + 1, "contains": T + 1,
                          "curvature_along": 0, "product": T}

    def test_fw_power4_fw_short_step(self, monkeypatch):
        inst = fw_power4()
        assert inst.x0 is None and not hasattr(inst.obj, "curvature_along")
        counts = self._run(monkeypatch, inst, "ss")
        T = self.ITERS
        # the default start vertex costs one more LMO call
        assert counts == {"grad": T + 1, "value": T + 1, "lmo": T + 2,
                          "contains": T + 1}

    @pytest.mark.parametrize("step", ["ls", "ss"])
    def test_ifw_takes_two_ratio_tests_per_step(self, monkeypatch, step):
        """The global step's cap is 1 by convexity; the in-face steps take one each."""
        inst = wolfe_edge()
        counts = {}
        self._count(monkeypatch, counts, inst.poly, ("max_step",))
        tr = run_instance(inst, "IFW", step=step, gap_tol=1e-12, max_iters=self.ITERS)
        assert len(tr.records) > 0
        assert counts["max_step"] == 2 * len(tr.records)

    @pytest.mark.parametrize("step", ["ls", "ss"])
    @pytest.mark.parametrize("variant", ["AFW", "BPFW"])
    def test_only_fw_steps_build_a_vertex_key(self, monkeypatch, variant, step):
        """Away steps and swaps name support rows, so no coordinates are looked up.

        The start vertex and the LMO vertex of each FW step are the only
        vertices found in the support by their coordinates.
        """
        calls = []
        find = ActiveSet._find
        monkeypatch.setattr(ActiveSet, "_find",
                            lambda aset, v: calls.append(1) or find(aset, v))
        tr = run_instance(wolfe_edge(), variant, step=step, gap_tol=1e-12,
                          max_iters=2000)
        fw_steps = sum(r.step_kind == KIND_FW for r in tr.records)
        assert 0 < fw_steps < len(tr.records)
        assert len(calls) == fw_steps + 1
