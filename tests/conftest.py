"""Print one PASS/FAIL line per acceptance criterion after the run; build
synthetic traces for the tests (``trace_of``); give the standard-form
corollary's closed form (``inv_sigma_bound``)."""

import re

import numpy as np

from fwpoly.solvers import RunTrace

_PATTERN = re.compile(r"test_acceptance\.py::test_c(\d\d)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", "call") != "call" and outcome != "error":
                continue
            m = _PATTERN.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            num, label = m.group(1), m.group(2).replace("_", "-")
            ok = outcome == "passed" and results.get(num, (label, True))[1]
            results[num] = (label, ok)
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(results):
        label, ok = results[num]
        terminalreporter.write_line(
            f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}")


def trace_of(records, variant="FW", f_final=0.0, fw_gap_final=0.0, fstar=None,
             reason="max_iters"):
    """A RunTrace whose columns hold the given IterRecords, row t from record t.

    Record t must have t as its ``t``.  Its ``f_gap`` is not read, since a
    trace derives f_val - fstar; a field that is None in the first record is
    a missing column.
    """
    assert [r.t for r in records] == list(range(len(records)))

    def column(name, dtype=float):
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    def optional(name):
        return None if getattr(records[0], name) is None else column(name)

    return RunTrace(variant, reason, None, f_final, fw_gap_final, fstar,
                    f_val=column("f_val"), fw_gap=column("fw_gap"),
                    case=column("case", np.int64),
                    step_kind=tuple(r.step_kind for r in records),
                    eta=column("eta"), eta_max=column("eta_max"), inner=column("inner"),
                    support_or_face_dim=column("support_or_face_dim", np.int64),
                    strong_gap=optional("strong_gap"), gamma=optional("gamma"),
                    points=optional("x"))


def inv_sigma_bound(poly, vset):
    """1 / ||sigma^-1 on I_F|| for the face of a standard form with vertex indices vset.

    Read off the vertex coordinates alone: row i is x_i >= 0, sigma_i is the
    least positive x_i over the vertices, and I_F holds the rows zero on the face.
    """
    V = np.asarray(poly.enumerate_vertices())
    zero = V <= 1e-9
    sigma = np.where(zero, np.inf, V).min(axis=0)
    return 1.0 / np.linalg.norm(1.0 / sigma[zero[sorted(vset)].all(axis=0)])
