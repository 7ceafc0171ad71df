"""Pinned envelope bounds and bench outputs.

Every run of ``test_trace_pins.py`` (each certified instance under each
variant and step rule it accepts, at most 300 iterations) is checked under
its own envelope and under ``fw`` and ``afw``, at the instance's (mu, theta),
at (10 mu, theta) and at (mu, 1/4).  For each run the SHA-256 over the
``EnvelopeReport.bounds`` bytes and ``(ok, t0, t1, first_violation,
worst_ratio, n_checked, n_skipped)`` of every check is pinned.  The
cross-family checks at theta = 1/4 reach regimes where the constant regime
ends before t0 (a support of size 0 at t0), and the FWIPW runs under their
own envelope pin the bits of its geometric tail.

The second set pins the bytes of every file that ``bench`` writes for each
suite at ``max_iters=2000``.

The digests were generated before the envelopes were rewritten as one
per-family table (numpy 2.4.6, Python 3.11.7); a changed digest is a change
of the certified bounds, not noise.
"""

import hashlib

import pytest

from fwpoly.harness import bench, envelope_check, envelope_for
from fwpoly.solvers import solve

from test_trace_pins import GAP_TOL, IDS, MAX_ITERS, RUNS


def _checks(inst, variant):
    """(envelope id, mu, theta) of every pinned check of one run."""
    own = envelope_for(variant, inst.poly)
    ids = [own] + [e for e in ("fw", "afw") if e != own]
    mu, theta = inst.cert.mu, inst.cert.theta
    return [(e, mu_, theta_) for e in ids
            for mu_, theta_ in ((mu, theta), (10 * mu, theta), (mu, 0.25))]


def _run_digest(factory, variant, step):
    inst = factory()
    trace = solve(inst.poly, inst.obj, variant, step=step,
                  L=None if step == "ls" else inst.L, max_iters=MAX_ITERS,
                  gap_tol=GAP_TOL, x0=inst.x0, fstar=inst.fstar)
    dim = inst.poly.dim()
    m = inst.poly.A.shape[0] if inst.poly.A.size else None
    h = hashlib.sha256()
    for envelope_id, mu, theta in _checks(inst, variant):
        rep = envelope_check(trace, envelope_id, mu, theta, inst.L, dim=dim, m=m)
        h.update(rep.bounds.tobytes())
        h.update(repr((rep.ok, rep.t0, rep.t1, rep.first_violation,
                       rep.worst_ratio, rep.n_checked, rep.n_skipped)).encode())
    return h.hexdigest()


def _bench_digest(suite, out_dir):
    bench(suite, out_dir, max_iters=2000)
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


ENVELOPE_PINS = {
    "interior_quadratic-AFW-ls":
        "520d1b6c8d22484849b46a1bca3d6368b45fb6c6c6b25586c11e55fa1e336eb5",
    "interior_quadratic-AFW-ss":
        "44892f070df847d69adad3695938d17937c056d4960f34e03255b951ea287c69",
    "interior_quadratic-BPFW-ls":
        "cd40a11827ce23ea9ced5e8f4a85580fef49e186fea11a7268fade7d107c8123",
    "interior_quadratic-BPFW-ss":
        "5912d0a6382db6c7db31ef3a0178e7b27b3b36c9dd31ebca6f4a8a3832359742",
    "interior_quadratic-FW-ls":
        "0e6632c20189a39ad6c8b065289947e4fd4bd13434548162e08f2d916b2d618f",
    "interior_quadratic-FW-ss":
        "1ccf4186f5404c4a2b8febab7f22800e27d62125dc53ba51fd02028138788a5d",
    "interior_quadratic-IFW-ls":
        "fc2444a00bb2be1bee2826440bc14c6df7b6b4068ae3ec0e13c3abfa03e417da",
    "interior_quadratic-IFW-ss":
        "8ee3aac9f8b01633e458f7778999482c7f2d8f4a9e555cd290198a13af9a5a2a",
    "fw_segment-FW-ls":
        "f166b519d3454b380c7708f1db1e359c0e408f8b5154a9fad2d535bb19d3f4b3",
    "fw_segment-FW-ss":
        "fa29bc806df4d0972a20f73af357100f66fbbb8949b69eb0b01cf0af0ad408b2",
    "fw_segment-IFW-ls":
        "ecc571c33cedea9b6d479e47223e02a57e634c250ccce6e524a7e60285f67a85",
    "fw_segment-IFW-ss":
        "ecc571c33cedea9b6d479e47223e02a57e634c250ccce6e524a7e60285f67a85",
    "fw_power4-AFW-ls":
        "4ed40adc2e249af52dba6bdea1121bd6bab6199951d2300da022c5feb2dbe6f2",
    "fw_power4-AFW-ss":
        "c10e6f446fd6558e5feed46137724c8e06c360fc67e77b8ae5761527cc7ff8dc",
    "fw_power4-BPFW-ls":
        "494e4e16013a5fad3fca0db32f06fcfc6d3b982642817b9662f835e2d150a44c",
    "fw_power4-BPFW-ss":
        "907bc753a1e8d984b82e9e4f5a05a83b66e1d04314022a10306a9a16f9288569",
    "fw_power4-FW-ls":
        "b1751b1cb7fa346911c3bc4d2e2257ebab55db15215f0ac5c8cb51a7348eb233",
    "fw_power4-FW-ss":
        "8340401ac1d5bf6c7322002a4d4a810d7c2e21db8db024058f31a0b764e0b928",
    "fw_power4-IFW-ls":
        "18c5c4bb6090a9b01dd0e64c2494f3246422390679af0926e2350a0f0e75c9e1",
    "fw_power4-IFW-ss":
        "62b5f195945a590e7af9537c8ba4d7cab96fbf4222d2dab5265875c0545f8a57",
    "wolfe_edge-AFW-ls":
        "9c2de93890054c0ac9df7142715d35e63453a0d040a1f6825e17e9bf0e394e88",
    "wolfe_edge-AFW-ss":
        "02f72ed18eccf6a70ba60e26c45b8d6534d4464c5459cfee976bbf27ced69312",
    "wolfe_edge-BPFW-ls":
        "7eae8cf5ebed8b08b1fc2383cdbb735c1ffe63439de514ecddbeaffd042e8ee7",
    "wolfe_edge-BPFW-ss":
        "dfbc54eb53547dff11a1586e178c7dd57aacedf85369e52634db1c5b296f4216",
    "wolfe_edge-FW-ls":
        "536e91908d06033b11ffa8abd6f34dc84aa2010062eb1fe91d8ced9047e8d020",
    "wolfe_edge-FW-ss":
        "c766c524e21c5202b9508c86b1b11550998ed0149702f1c082e85bcefbc6465f",
    "wolfe_edge-IFW-ls":
        "2b11cc14c9dbdc216214cdb909dc04d5ce21299061f33dc7ad3a999cb4a18799",
    "wolfe_edge-IFW-ss":
        "14cb30325e8dbabaedaf95235c9c596cf3674caf9a08cdc8e4fbd44746333853",
    "edge_mid_std-AFW-ls":
        "aacb0e80d9db8476674ad17ea0277ae81e373db4daf1f35040ea6537cc65d0f2",
    "edge_mid_std-AFW-ss":
        "96de41d00ac4fe27ef4d39dfbf867352779bd2a41de775fb403d7ad3ec5734cb",
    "edge_mid_std-BPFW-ls":
        "94c6d84c6eaa42475a028703abd164f09a2e9fe6ffb472ed35113925e42eb0e4",
    "edge_mid_std-BPFW-ss":
        "b12351b5bade01708e57d27337bec6ad4abdc4ac2be8703f3ec015a2453ecea1",
    "edge_mid_std-FW-ls":
        "f1a11aeb5df6d97a96bbcf5d04f7d0be446172cccc5976a56096f5c193dda028",
    "edge_mid_std-FW-ss":
        "b7249dc4f5f45c588736828ee4a6119124342395fe4330b2ba5b23c974277005",
    "edge_mid_std-IFW-ls":
        "7e9c6f1bfb401b5003b50e337f391036ca11dddbb74339b5acf006a368096465",
    "edge_mid_std-IFW-ss":
        "54971cf3ca70626d7c8bf4bb7463cdb7d0c569c14ff9d59874d8d08aae11da1e",
    "edge_mid_std-FWIPW-pow2":
        "d4590a464ce1e4ed97477aa9d9ca2be753091bbccc0cddb406d3172de04322e0",
    "fwipw_mid-AFW-ls":
        "ffaf6b8c89c7bd3778d670eb28682cdafbc1af20032102b73a51a15ec9952fc9",
    "fwipw_mid-AFW-ss":
        "4b4f83ae71b9b560d2243dbd6642454c4e9474aee3a28d99d9110e1e407626c5",
    "fwipw_mid-BPFW-ls":
        "21ad0e74b8ecf655378b72dd88ec6eb8b2bb24ce628b789222e2a6f331be0b05",
    "fwipw_mid-BPFW-ss":
        "cb4b7b7e02289ccc17f71271b9aadfa1bce5c6296a428ee392442d920d4099df",
    "fwipw_mid-FW-ls":
        "9dabafb90b323d3c2362da7b6bdaa7e9a3386fca597b46662de3c6e38c297c85",
    "fwipw_mid-FW-ss":
        "5bd6fb27a552f02c2683d9cd19377b8bac2b87bf3fbec25fb5affa3e67ff1b10",
    "fwipw_mid-IFW-ls":
        "6eae816c31e213b0929bf69c83b491c4d64b9043618786986b6a02439724a57e",
    "fwipw_mid-IFW-ss":
        "e10cf9e626b6cc2edadec0e1dd27155a4e23cd0fb98b31b486f14afe1c7766d5",
    "fwipw_mid-FWIPW-pow2":
        "211ea2c38c48d4070b285d3a44450aebfa199b482afe50f5fcc5da8abbfb3223",
    "fwipw_simplex5-AFW-ls":
        "890d178b6b11c9204e7b4f0145362d2124fa565afb620b17ad0ff7f44c2077cc",
    "fwipw_simplex5-AFW-ss":
        "215313c603c4fe3b4b6f8ee7fd070c4d2b57b305da9b7e71c118626a5b81ab8f",
    "fwipw_simplex5-BPFW-ls":
        "634dc5f49bf3f6e6c4208335332f13cb1895b406737937736093b10955e1d6fe",
    "fwipw_simplex5-BPFW-ss":
        "bf002ef6e49472bb64b370c6006550f53b01804b46cbb8a35be468bdb1448b92",
    "fwipw_simplex5-FW-ls":
        "23253197c1436197ecc0362758628d5e9fd25f4aa9b956ceb7e1b1a2c0329d72",
    "fwipw_simplex5-FW-ss":
        "06c5ad3214f245fddfa2ad8523ad309c4dae94e0f6109df427e64a4b928901f0",
    "fwipw_simplex5-IFW-ls":
        "4636976cc67e73642288bebf1ae56f2552ed7ef3a333cc55a7ec216bdc5b984b",
    "fwipw_simplex5-IFW-ss":
        "2acb36dfc15ffd143f54de233ce7db0aeab06befe1ce590daad1b760eac8bf94",
    "fwipw_simplex5-FWIPW-pow2":
        "b7660d021b4950176065ccfcc2e26f46bd28635ababb6bdfcdf632765fedb389",
}

BENCH_PINS = {
    "fwipw": "af9ac9b6846364a1bcec91210cc1e08f65ca8bccccae0d145bfcca0d833ebe95",
    "interior": "f8e72cf15b000609ad4b7dccc3c158c832956c1f582a0a34e7be9375b5100615",
    "theta-sweep": "e6e2ce188a7818de8153f773988113c1d16239564990d418c27a878d89d5d68f",
    "wolfe": "94ba605461e006ee4a6de79966d5a78a3436e718ee9cd77ab4f4dff9d6ee1546",
}


def test_every_run_is_pinned():
    assert set(IDS) == set(ENVELOPE_PINS)


# at theta = 1/4 a measured gap a rounding error below zero has no real
# square root; the regime search skips it, as it always has
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("run_id,factory,variant,step",
                         [(i, *run) for i, run in zip(IDS, RUNS)], ids=IDS)
def test_envelope_digest(run_id, factory, variant, step):
    assert _run_digest(factory, variant, step) == ENVELOPE_PINS[run_id]


@pytest.mark.parametrize("suite", sorted(BENCH_PINS))
def test_bench_digest(suite, tmp_path):
    assert _bench_digest(suite, tmp_path) == BENCH_PINS[suite]
