"""Pinned trace digests: every certified instance under every variant and step
rule it accepts must reproduce its trace CSV byte for byte.

The digests are SHA-256 hashes of ``RunTrace.to_csv`` output for runs of at
most 300 iterations at gap_tol 1e-10.  A changed digest is a behaviour change
of the solvers, not noise: reruns are byte-identical by design.

A second set pins 100-iteration runs on Simplex(60) and Box(60), where the
face dimensions and oracles come from closed forms.  Those digests were
generated with the generic SVD and ratio-test path (numpy 2.4.6, Python
3.11.7), so they check the closed forms byte for byte at a size where the
two paths differ.

The quadratic runs whose traces moved when solves began to keep y = Qx
along the run (21 certified runs and all 16 large runs; every ``fw_power4``
and ``fw_segment`` pin held) were re-pinned after
``scripts/compare_pins.py`` compared each with the previous trace, record by
record.  Eight certified runs and three large runs were re-pinned when the
support and in-face selections began to treat values equal to rounding as
tied (``polytope.tie_argmin``); each of them forks from its previous path
only at such a tie.
"""

import hashlib

import numpy as np
import pytest

from fwpoly.instances import ALL_CERTIFIED
from fwpoly.objectives import Quadratic, curvature_constant
from fwpoly.polytope import Box, Simplex, StdFormPolytope
from fwpoly.solvers import solve

MAX_ITERS = 300
GAP_TOL = 1e-10


def _runs():
    """(instance factory, variant, step) for every accepted combination."""
    out = []
    for factory in ALL_CERTIFIED:
        inst = factory()
        start = inst.poly.initial_vertex() if inst.x0 is None else inst.x0
        variants = ["FW", "IFW"]
        if inst.poly.is_vertex(start):
            variants += ["AFW", "BPFW"]
        for variant in sorted(variants):
            for step in ("ls", "ss"):
                out.append((factory, variant, step))
        if isinstance(inst.poly, StdFormPolytope) and inst.poly.is_simplex_like():
            out.append((factory, "FWIPW", "pow2"))
    return out


RUNS = _runs()
IDS = [f"{f.__name__}-{v}-{s}" for f, v, s in RUNS]

PINS = {
    "interior_quadratic-AFW-ls":
        "9116c5db4682b7b9782e77b595ea040c141b5c55965346eb000916fa21e79845",
    "interior_quadratic-AFW-ss":
        "1797986382ee2bfa1d351bb118f4c7fd2971abf417d874580186a0556d773cb4",
    "interior_quadratic-BPFW-ls":
        "f5f4fc5c09f91ffc9a8f4f7c4cc5f220d418356d2145e7e2a89bfc9b93f768f4",
    "interior_quadratic-BPFW-ss":
        "ab42656042cb16b4334558c469195dbbbf3728f82d2b4a3d6f0167b51180d768",
    "interior_quadratic-FW-ls":
        "bd0b8e90a0824ff881a9c0f9a2c4bb456f7f2b88e3ed8c86eb7030e994411e4d",
    "interior_quadratic-FW-ss":
        "51d48e782f9ae4ece015ecbb5ffde92399f45716ea78e1be637c43e1b69a1e27",
    "interior_quadratic-IFW-ls":
        "4b7427af5ed93016919c3dd95e4b0da62935834470f5111c3160ab0824e892d4",
    "interior_quadratic-IFW-ss":
        "dd3a1fc3ecce04d6acc0f7df3e5b6340a8ab7ce1acab9c9ad3896464af99cec4",
    "fw_segment-FW-ls":
        "dfaf97dad2ab2b9f8cfd32bf6bf4c9518d92b4a44169f3ceaa9f1920732a5b94",
    "fw_segment-FW-ss":
        "543a50516454a333c3f00aacf202189420fd08b753ce18bfb2602ba0efeb51b9",
    "fw_segment-IFW-ls":
        "9ba42e57bc83a76e6d34b584acdb557ed47d3b1392c68071ef0b9ac013115bc8",
    "fw_segment-IFW-ss":
        "8529ee625a35558302c26af951d051534fb9e9cf6ee32a00fb459a221187a464",
    "fw_power4-AFW-ls":
        "5733a83bca48791b1d33543f75226408069ff72bb0bf8b509431a0c8808b6f0c",
    "fw_power4-AFW-ss":
        "93b76152ca102a65e68d466f50528d87a83da1f627ad86776ef4f27ecdc1ad71",
    "fw_power4-BPFW-ls":
        "5733a83bca48791b1d33543f75226408069ff72bb0bf8b509431a0c8808b6f0c",
    "fw_power4-BPFW-ss":
        "3ae56bd88add72db73a3c802d0ccac45ef8f293d4e78ca5111cdd29c7b9c2f4f",
    "fw_power4-FW-ls":
        "cb7a0220e2adc02a759cf4be9cc188040e9b12fc677628e2644b2fde1c09bfba",
    "fw_power4-FW-ss":
        "901ddc69b917bfc6adf3fcd98ef53217e6867f8acf63540ae9156337f4a1d76d",
    "fw_power4-IFW-ls":
        "cb7a0220e2adc02a759cf4be9cc188040e9b12fc677628e2644b2fde1c09bfba",
    "fw_power4-IFW-ss":
        "7f2c5808cd2f99e7f42f8aba77c6d961a19e96062cc7fa41451aadc762e8a8e8",
    "wolfe_edge-AFW-ls":
        "49b1dd0907b181a55f285a9e5c56c0f2b610208eb7f76b148744c750128b2ee5",
    "wolfe_edge-AFW-ss":
        "d861d0f26993b4d258534a4654dccc65a458660e7369f966b7da9f5362f05751",
    "wolfe_edge-BPFW-ls":
        "20a5b7993d584d20d67150494aa6779497cee83070f969d93520f2d9b1b63cae",
    "wolfe_edge-BPFW-ss":
        "97a5db19343053e8fc2c52e429130ebc303e8a4295acd3b41b68df2b73f15fdc",
    "wolfe_edge-FW-ls":
        "b98804a59d2bbc9fddade2510af69c1ce6d55a8ecce3a5499b44170b74ac8699",
    "wolfe_edge-FW-ss":
        "50c10f4a481d265e5dcd7b6db89f1420cf69d9f98a70ddc01be9bc54ed2da54f",
    "wolfe_edge-IFW-ls":
        "2c43aad7f4ce6c5fb6d25cd920ed21ef5ee68c47936d67321f5bca3ed18da7a8",
    "wolfe_edge-IFW-ss":
        "a05f454e533e43d3c87a7c170877456444d5ae31a05ea0abd056d5b05ec8724c",
    "edge_mid_std-AFW-ls":
        "1a1a6d10f4b91ccf356d893b2cab46d7971e6c245aab6f5841d354aef1e6db2f",
    "edge_mid_std-AFW-ss":
        "f0fb16072ec4332641be062c142e69de120f3a76f9ef0f1dff63954d88d1ba2e",
    "edge_mid_std-BPFW-ls":
        "1a1a6d10f4b91ccf356d893b2cab46d7971e6c245aab6f5841d354aef1e6db2f",
    "edge_mid_std-BPFW-ss":
        "0982a162a8021486ccfead533032bae3131bc715ee307b2d916549d2a18075ce",
    "edge_mid_std-FW-ls":
        "0f2aa4218355dba1e12867910960f0cb63eda067d3bc691f786199938772de00",
    "edge_mid_std-FW-ss":
        "991b527ab98a6c88df9277aa3d64eacd8585e667398c96313111e5d75abd1983",
    "edge_mid_std-IFW-ls":
        "0f2aa4218355dba1e12867910960f0cb63eda067d3bc691f786199938772de00",
    "edge_mid_std-IFW-ss":
        "9d5ecc22e3caeafdd7460e15cf584e6004e30e271d8fbc3e43754b2f57439d68",
    "edge_mid_std-FWIPW-pow2":
        "f50cbd4cf3997eb691ca390d3d406439493dbe5e75e764970bf9823b708993ae",
    "fwipw_mid-AFW-ls":
        "b2a1afe7396ad95661efdec1f2452ccbd887f6b97b55f2d883a03911befe8439",
    "fwipw_mid-AFW-ss":
        "c3a7aae9d2d6d851b5c8b96cb85cc875d0dce595473889f92a4648c15cb60cd6",
    "fwipw_mid-BPFW-ls":
        "b99cb32a9e73685613b7eab40a206ba851303070037f93b4514725e633c6ca9d",
    "fwipw_mid-BPFW-ss":
        "70145ee2594f5b499da46132edc5816837ba04624f381bf9bf392df6d3d7cb4d",
    "fwipw_mid-FW-ls":
        "b91ecad5b6d7b254ebe90c93ed6737730c528deb9fda73fac4bcf3476d1a36b7",
    "fwipw_mid-FW-ss":
        "74adb633657aaef1fb204fced89e5a84c0ebc8a992dbddca32587f7737e61f5f",
    "fwipw_mid-IFW-ls":
        "663009ed0f930b0010c18425889bc24184701da971c65204179af5d995d345b2",
    "fwipw_mid-IFW-ss":
        "aa52783e0bb11344c03ef7c499099fe9cbb751e274fbbe3d7e317b185cc89d4e",
    "fwipw_mid-FWIPW-pow2":
        "e066d07d2ce4a3eee771be6cc0f5fce471fe66773a9c8df5d6fb094e77cf982d",
    "fwipw_simplex5-AFW-ls":
        "de50f323dcebca864c106bcfbed2c6fe4ac10385184ef65fe6f0037e404eeb64",
    "fwipw_simplex5-AFW-ss":
        "766bd47e1681591141aeba01433c7061dfe6f26c8cd3b593182cf482f28bfebb",
    "fwipw_simplex5-BPFW-ls":
        "6ece5e9a31312b1b849f6ac492e99b70c76d95803ce8a21544eb5a49f86c9440",
    "fwipw_simplex5-BPFW-ss":
        "e3943adfaa74d74e37e8dcea1c267ae3d9e51aac16449d34ffecd5af27a3345f",
    "fwipw_simplex5-FW-ls":
        "b229706255c6c53679266c654d0eb25ff56e7db67f9bddf7eb0a37d2b34ec973",
    "fwipw_simplex5-FW-ss":
        "8c6c102c9d0453886ae0cae10caea89ed16392495552cee4dc049cf71606fb85",
    "fwipw_simplex5-IFW-ls":
        "8271e92c6acd04bef6bd0fa4fe530f98ce1b104ebc486dff774972a13c78373b",
    "fwipw_simplex5-IFW-ss":
        "c8b42558ced51b859f2e443bf8a91857b10752d49bab05b7fd6d22dca5758e6b",
    "fwipw_simplex5-FWIPW-pow2":
        "690e3e3eabef6e7cfccd428893047d88f0488bccbb012317b4109ebc8df8f192",
}


def test_every_run_is_pinned():
    assert set(IDS) == set(PINS)
    assert len(IDS) == 55


@pytest.mark.parametrize("run_id,factory,variant,step",
                         [(i, *run) for i, run in zip(IDS, RUNS)], ids=IDS)
def test_trace_digest(run_id, factory, variant, step, tmp_path):
    inst = factory()
    trace = solve(inst.poly, inst.obj, variant, step=step,
                  L=None if step == "ls" else inst.L, max_iters=MAX_ITERS,
                  gap_tol=GAP_TOL, x0=inst.x0, fstar=inst.fstar)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINS[run_id]


# -- large-n structured runs ------------------------------------------------------
#
# Simplex(60) and Box(60) with a diagonal-plus-low-rank quadratic whose optimum
# lies in the relative interior of a face of dimension 6, built the way the
# benchmark's structured workload builds its n = 500 problems.  At this size
# the closed-form face dimensions and oracles of Simplex and Box must agree
# byte for byte with the generic SVD and ratio-test path they replace.

LARGE_N = 60
LARGE_FACE_DIM = 6
LARGE_RANK = 3
LARGE_ITERS = 100


def _low_rank_quadratic(rng, n, rank, xstar, gstar):
    U = rng.standard_normal((n, rank)) / np.sqrt(n)
    Q = np.diag(rng.uniform(1.0, 2.0, n)) + U @ U.T
    return Quadratic(Q, gstar - Q @ xstar)


def _large_problems():
    """{name: (polytope, objective)} for the simplex and the unit box."""
    rng = np.random.default_rng(0)
    n, k = LARGE_N, LARGE_FACE_DIM
    supp = rng.choice(n, size=k + 1, replace=False)
    xstar = np.zeros(n)
    w = rng.uniform(0.5, 1.5, k + 1)
    xstar[supp] = w / w.sum()
    gstar = -1.0 + rng.uniform(0.5, 1.5, n)
    gstar[supp] = -1.0
    simplex = (Simplex(n), _low_rank_quadratic(rng, n, LARGE_RANK, xstar, gstar))

    free = rng.choice(n, size=k, replace=False)
    at_hi = rng.random(n) < 0.5
    xstar = np.where(at_hi, 1.0, 0.0)
    xstar[free] = rng.uniform(0.2, 0.8, k)
    gstar = np.where(at_hi, -1.0, 1.0) * rng.uniform(0.5, 1.5, n)
    gstar[free] = 0.0
    box = (Box(np.zeros(n), np.ones(n)),
           _low_rank_quadratic(rng, n, LARGE_RANK, xstar, gstar))
    return {"simplex60": simplex, "box60": box}


LARGE_RUNS = [(name, variant, step) for name in ("simplex60", "box60")
              for variant in ("FW", "AFW", "BPFW", "IFW") for step in ("ls", "ss")]
LARGE_IDS = [f"{name}-{variant}-{step}" for name, variant, step in LARGE_RUNS]

LARGE_PINS = {
    "simplex60-FW-ls":
        "1bf532f42efd2a03184bfc63b240926bb03de07f5be52fc4d9ea19f50bd01c67",
    "simplex60-FW-ss":
        "c6d9133091442d429a8418cf67eedee153694d74fa66f8cae970355e6569d903",
    "simplex60-AFW-ls":
        "3dcb002b082896b44233688dafc4371bd976075622d62255cfeedbf5fa78eeda",
    "simplex60-AFW-ss":
        "1d6fe35cc266adc56e8a5948e6956327e8d744fd36485e114d96314845f10f05",
    "simplex60-BPFW-ls":
        "5f0db602b8050bd6fd6f177cf5329e467bd62957f1872a17e02d9be871086ac8",
    "simplex60-BPFW-ss":
        "3bab00c3f9e6c08b9160a26382d827b22c1c3095fb48224d42c1fa62c1c9a042",
    "simplex60-IFW-ls":
        "d44568ecffc0a8f167341f59b1b552626643c8e4ccffd6c6f4083b836feaed21",
    "simplex60-IFW-ss":
        "ab95d0616ed0adacc5296bf8d57655816fda783c88b3f54188f3cc4d74fbf6f7",
    "box60-FW-ls":
        "dfca25087dee190c90dd83125a92500b48d7d44fe83eb9b7d989e4ca01dd8774",
    "box60-FW-ss":
        "8bcaf3ee4bb81f0ebb7e1b75fe77dc886315a02b3e933e2220d236207cabd24d",
    "box60-AFW-ls":
        "697ac0b4766db49470c61996dd26415582c14c87dd6bd74585a33fb77558d4f4",
    "box60-AFW-ss":
        "b11d06d70aa80af75c956fe5fbc37b5557a0fa2fc4382c73c586a93d62fb003a",
    "box60-BPFW-ls":
        "7cc84113ed74a75bebdb05974398a9ba7849de882eaccf0b4c3bbaf00fa79c2a",
    "box60-BPFW-ss":
        "2765ec073aa09a61b2b0bbeba8604f51cf391aa2b31ef2b550524e60a280dcc4",
    "box60-IFW-ls":
        "2cb9fde1f58cf75c98cb4439e1573e1b3fdf3284e098281bf13d5b352807be16",
    "box60-IFW-ss":
        "d008743bfe1d02205d8396b88d4629a40f23bc6af9af7df123a25883176de1b2",
}


def test_every_large_run_is_pinned():
    assert set(LARGE_IDS) == set(LARGE_PINS)
    assert len(LARGE_IDS) == 16


@pytest.mark.parametrize("run_id,name,variant,step",
                         [(i, *run) for i, run in zip(LARGE_IDS, LARGE_RUNS)],
                         ids=LARGE_IDS)
def test_large_trace_digest(run_id, name, variant, step, tmp_path):
    poly, obj = _large_problems()[name]
    L = None if step == "ls" else curvature_constant(obj, poly)
    trace = solve(poly, obj, variant, step=step, L=L, max_iters=LARGE_ITERS,
                  gap_tol=1e-8)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == LARGE_PINS[run_id]
