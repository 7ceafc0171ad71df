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
        "5283f343f67eff5c5347b0fdb3a27c42866dcc1e82cc5af7da0938d8ccf55626",
    "interior_quadratic-AFW-ss":
        "f2d9d2d27bfd3e89e4863c1881ad9a89d41ecff947b6abd4f8b142903f8ee14e",
    "interior_quadratic-BPFW-ls":
        "6c01d678ab53bad27abde5f14eead3ce00f9835377be38e0069755b5a6fdf7d5",
    "interior_quadratic-BPFW-ss":
        "a84d8537e0f61f9be62718fcd13da1d2c627bf4f1286882a84ec9a43b0b9a7a2",
    "interior_quadratic-FW-ls":
        "bd0b8e90a0824ff881a9c0f9a2c4bb456f7f2b88e3ed8c86eb7030e994411e4d",
    "interior_quadratic-FW-ss":
        "51d48e782f9ae4ece015ecbb5ffde92399f45716ea78e1be637c43e1b69a1e27",
    "interior_quadratic-IFW-ls":
        "4010b2f15860ba4e84100cfbdd8ec166211458e1fbec0a4f5bd480b7950533ee",
    "interior_quadratic-IFW-ss":
        "42d54d02a11ef9fb75e8d29057c368e9ae4c4c85538c3a4b2ebf7cc5b4de04be",
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
        "0f050e03075d85b87ada66e364afc9328eac916815f5ac33409717cb7f5b4e0b",
    "wolfe_edge-AFW-ss":
        "5fca4ac94d6fc831e21b15233318cea12c4591a29ab2dcc336e2dfd4deb492b6",
    "wolfe_edge-BPFW-ls":
        "ea28d07407b4809e1841615e6c050bf2b3d0f82931bf5be06c6e17096a9204c2",
    "wolfe_edge-BPFW-ss":
        "e4195428110fa10db07eac74e2b0fef673e2757233452620e02426fb62dbd476",
    "wolfe_edge-FW-ls":
        "2462f21a0e683a5d6fceef64ac0ffdfa64881d0cff7ba878b97ec47001591aac",
    "wolfe_edge-FW-ss":
        "4e218c589e5efe7501a5c415bf3675f9dd499df58954ed32b2c8a2cd9605d53b",
    "wolfe_edge-IFW-ls":
        "1780e71fa341bc3a8f721d2a2734a85a4d04a88acb98adea1cc20fa3b06427c7",
    "wolfe_edge-IFW-ss":
        "a625437dc3f96ca56f9b4b2857253fb957697587c3a78218d8a6f1c2b9d67a8e",
    "edge_mid_std-AFW-ls":
        "1a1a6d10f4b91ccf356d893b2cab46d7971e6c245aab6f5841d354aef1e6db2f",
    "edge_mid_std-AFW-ss":
        "7bcd7ca07c9e03ab308595d44c5979ea6cd47a314e3038c611312903c910b704",
    "edge_mid_std-BPFW-ls":
        "1a1a6d10f4b91ccf356d893b2cab46d7971e6c245aab6f5841d354aef1e6db2f",
    "edge_mid_std-BPFW-ss":
        "cd433571fe7b1213581196a29ffbe0c839632fad85bfc9b57158d136ac539810",
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
        "bd4415f99da859a01e4fbbddc318d759b81812a4c00bfec570f489cfb279a2aa",
    "fwipw_mid-AFW-ss":
        "a3454f74d89a266fc41ac7346636fba2e4be493b3091da629a10c6b757d33ad1",
    "fwipw_mid-BPFW-ls":
        "13d5a6fa9519b7b68ac8f1de327d2281c59c84ea4d953caf552d54643b771d85",
    "fwipw_mid-BPFW-ss":
        "e6a29f52dffb45b9e203e3d28dde7280ea4ee934a7a6d35f73beb961e297c804",
    "fwipw_mid-FW-ls":
        "b91ecad5b6d7b254ebe90c93ed6737730c528deb9fda73fac4bcf3476d1a36b7",
    "fwipw_mid-FW-ss":
        "74adb633657aaef1fb204fced89e5a84c0ebc8a992dbddca32587f7737e61f5f",
    "fwipw_mid-IFW-ls":
        "8f6bc8f900b0f6f3f7f2f539f0b73a96444e81dc6b85d002e23d375ada64bb0b",
    "fwipw_mid-IFW-ss":
        "aa52783e0bb11344c03ef7c499099fe9cbb751e274fbbe3d7e317b185cc89d4e",
    "fwipw_mid-FWIPW-pow2":
        "e066d07d2ce4a3eee771be6cc0f5fce471fe66773a9c8df5d6fb094e77cf982d",
    "fwipw_simplex5-AFW-ls":
        "1942d0dad37cc54df02f6dc7440354375af6d37a731c905e3ef0bceb4f56fafc",
    "fwipw_simplex5-AFW-ss":
        "69e455b040358c19107fdfd17b8ad0be8f053db491d0ae5651504420c16c866d",
    "fwipw_simplex5-BPFW-ls":
        "2b5af79cda18a5f05aab8280dc5d1afd84099f2692b123a6a899849a822b35dd",
    "fwipw_simplex5-BPFW-ss":
        "542cc98f488cdd8c4e7a04e04c3b83daa7f9272bfd6d17f2b4609c16bda6d98c",
    "fwipw_simplex5-FW-ls":
        "b229706255c6c53679266c654d0eb25ff56e7db67f9bddf7eb0a37d2b34ec973",
    "fwipw_simplex5-FW-ss":
        "8c6c102c9d0453886ae0cae10caea89ed16392495552cee4dc049cf71606fb85",
    "fwipw_simplex5-IFW-ls":
        "8271e92c6acd04bef6bd0fa4fe530f98ce1b104ebc486dff774972a13c78373b",
    "fwipw_simplex5-IFW-ss":
        "30a19c955224dcf2082733657f0fc000c96a9f749a88f9a9a5c2c5921d3fd6e1",
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
        "b60505b1551576ee73adf9fbc74168aee29e800d4d880e34159f9dde95ac5a17",
    "simplex60-FW-ss":
        "9e33bbf00611ac46767016ed615e36a14f83289e5f0f1a267ac8b08ce212de35",
    "simplex60-AFW-ls":
        "74493fa62ea99d5d733191e5bfb3346909c4aef7668b7856e987dec23fe1fbd9",
    "simplex60-AFW-ss":
        "5ea8066dc47b83331c2c9628a85432eae2532ccb3c8bd809dccae0c64aacd399",
    "simplex60-BPFW-ls":
        "5c49387d76cf1390b83d8a2aefffecdda6b5e48ce03761932de75b423a0b598c",
    "simplex60-BPFW-ss":
        "4840084276b7547b752c588e17e440179a6c5df7af63414562da9d6944ccaa9d",
    "simplex60-IFW-ls":
        "089279bb7d8bdee6f082d988fc903f48517cff28cc57737617b6442c03c44d27",
    "simplex60-IFW-ss":
        "ba96940e583f0392ad003186241a3292a59b9253989a36db6ffd80347ace4aad",
    "box60-FW-ls":
        "2003bade3ef0dcbaf9b6cf43380da531987a7d20163fee63e6ca93a8a549c280",
    "box60-FW-ss":
        "e73283505d26e48577b88cd0b011cea462403dd1cbe2962c94394779e0dfc893",
    "box60-AFW-ls":
        "c9f082aecca286bd516185cc1f4fd88acbdac4e4a2b22c973c65229e71a6d1be",
    "box60-AFW-ss":
        "e0e648f10e32caa2193b2a2ebf98dff0b952adfb77e390f2e3a14058a10e1725",
    "box60-BPFW-ls":
        "65fe9bbd2b74afcbba178af1286055ecfb0f4968f09a66ba8d36a5d898b7d702",
    "box60-BPFW-ss":
        "26b18fbb84738fc45b7a023ef3aa046942ca638ebe3097e3c969ddd5d6e2d441",
    "box60-IFW-ls":
        "d3b848b7aef12a5fe98c127a4d33838491562cc227e5920a9fc5e99b9f026980",
    "box60-IFW-ss":
        "9615faad838bd24bf6db3a1f03a2ce6c24ea791ef846811f230d937d22d83fd7",
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
