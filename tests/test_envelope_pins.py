"""Pinned envelope bounds and bench outputs.

Every run of ``test_trace_pins.py`` (each certified instance under each
variant and step rule it accepts, at most 300 iterations) is checked under
its own envelope and under ``fw`` and ``afw``, at the instance's (mu, theta),
at (10 mu, theta) and at (mu, 1/4).  For each run the SHA-256 over the
``EnvelopeReport.bounds`` bytes and ``(ok, t0, t1, first_violation,
worst_ratio, n_checked, n_skipped)`` of every check is pinned.  The
cross-family checks reach regimes where the support at t0 is empty, so the
constant regime ends at t0 itself, and the FWIPW runs under their own
envelope pin the bits of its geometric tail.

The second set pins the bytes of every file that ``bench`` writes for each
suite at ``max_iters=2000``.

The digests were generated before the envelopes were rewritten as one
per-family table (numpy 2.4.6, Python 3.11.7); a changed digest is a change
of the certified bounds, not noise.  The 27 FW, IFW and FWIPW runs whose
``afw`` checks had t1 below t0 were re-pinned when t1 became max(t0, ...).
Five run digests and the ``wolfe`` and ``interior`` bench digests were
re-pinned when quadratic solves began to keep y = Qx along the run; the
envelope verdicts of those runs did not change (``scripts/compare_pins.py``).
The ``fwipw_mid`` BPFW-ls and IFW-ls digests and the ``interior`` bench
digest were re-pinned when the support and in-face selections began to
treat values equal to rounding as tied: both ``fwipw_mid`` runs now take a
drop step at t = 3 and stop after 5 records, not 7, and every one of their
envelope checks still passes.
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
        "932b695227c419ac9be413cf483df98460181c72ea69642e48818f30bfdc1bfa",
    "interior_quadratic-FW-ss":
        "aac9ca76220b7b0937c9db9b7226490652f7507e344add50c620062196d4d008",
    "interior_quadratic-IFW-ls":
        "5c590558d7600c503d4cb1376c257685b21606e0f5113150d3e2610f8cdd254a",
    "interior_quadratic-IFW-ss":
        "03382bbbf519e119c3d0565f1513d1d1feb928231fc37c1fb8d2b750d3300509",
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
        "509d1d0317b8a300b1fa17bab41522ee71d7998453a40166e0b069169461a78d",
    "fw_power4-FW-ss":
        "c6fd65c33cae883d54a9a9d43b60fa57996595ff10b1f1320f6e23369c0b129e",
    "fw_power4-IFW-ls":
        "35502a10050d46f160c101c5f75ddc328c93b38366278408eef34b6cc8aac4b2",
    "fw_power4-IFW-ss":
        "c00d0551aa1f7d48b71da457bc00ba90ee3e5e024db0ab5ced838ea567aad928",
    "wolfe_edge-AFW-ls":
        "9c2de93890054c0ac9df7142715d35e63453a0d040a1f6825e17e9bf0e394e88",
    "wolfe_edge-AFW-ss":
        "16373e7abb405e040cc6ce9330aa366b63adce540f4b78becb9923fc5cc74fc0",
    "wolfe_edge-BPFW-ls":
        "7eae8cf5ebed8b08b1fc2383cdbb735c1ffe63439de514ecddbeaffd042e8ee7",
    "wolfe_edge-BPFW-ss":
        "dfbc54eb53547dff11a1586e178c7dd57aacedf85369e52634db1c5b296f4216",
    "wolfe_edge-FW-ls":
        "473c362d784a223eaf3ce61e17e3c44583ea4847bb7bfe74ae0984a776002fbe",
    "wolfe_edge-FW-ss":
        "3f60f15e81b855d63d82730b15b6c273aea2c406c4995db739bccebfc427bac5",
    "wolfe_edge-IFW-ls":
        "33d81a4cf36abb1484e460a20c21d5e7b85a98859b465d571d5ddf5cd8dc19ec",
    "wolfe_edge-IFW-ss":
        "44fec8cc5549d571634a2f85307b5339b4c620b38009b0ded5d559f532751c4a",
    "edge_mid_std-AFW-ls":
        "aacb0e80d9db8476674ad17ea0277ae81e373db4daf1f35040ea6537cc65d0f2",
    "edge_mid_std-AFW-ss":
        "b5a37e5399146a84a9f438046f9b100b7c46755e3db8df367fc726e51310a255",
    "edge_mid_std-BPFW-ls":
        "94c6d84c6eaa42475a028703abd164f09a2e9fe6ffb472ed35113925e42eb0e4",
    "edge_mid_std-BPFW-ss":
        "b12351b5bade01708e57d27337bec6ad4abdc4ac2be8703f3ec015a2453ecea1",
    "edge_mid_std-FW-ls":
        "59b1be1575973783cd157c96504005eaf7c83f9249b97a156bcb664bf248709e",
    "edge_mid_std-FW-ss":
        "1c02aaeb3bef1f09a3f7dc58b68b9e5330aa597de627a58c17f89133f4d21eab",
    "edge_mid_std-IFW-ls":
        "e0c6657bb0ee67e47c4c7719bf6d5b1bb1c72f0a8944d76885294a0540b3815d",
    "edge_mid_std-IFW-ss":
        "362d640974b22c6f6f4f8132a444e066ca7481b8688e5ada7f381380fdf4063f",
    "edge_mid_std-FWIPW-pow2":
        "afd5b7d0d404b67ade80b1e7005032e856dbd6dc9b3dd08e4e5b2e58bf148f0e",
    "fwipw_mid-AFW-ls":
        "ffaf6b8c89c7bd3778d670eb28682cdafbc1af20032102b73a51a15ec9952fc9",
    "fwipw_mid-AFW-ss":
        "4b4f83ae71b9b560d2243dbd6642454c4e9474aee3a28d99d9110e1e407626c5",
    "fwipw_mid-BPFW-ls":
        "cb4b7b7e02289ccc17f71271b9aadfa1bce5c6296a428ee392442d920d4099df",
    "fwipw_mid-BPFW-ss":
        "cb4b7b7e02289ccc17f71271b9aadfa1bce5c6296a428ee392442d920d4099df",
    "fwipw_mid-FW-ls":
        "b3753205aba6a29170c87a5fc7cdd3761614f2d6ab89eeefab85426f5dc81f5d",
    "fwipw_mid-FW-ss":
        "166dc6e9486820102ea8909fc8e5ec5202debe458f83f2f2a75ab6039557b8b3",
    "fwipw_mid-IFW-ls":
        "411f7dd84b5a94fceb4442fcb07a4607cf882c1ff2993a758b08942fb9971ed0",
    "fwipw_mid-IFW-ss":
        "411f7dd84b5a94fceb4442fcb07a4607cf882c1ff2993a758b08942fb9971ed0",
    "fwipw_mid-FWIPW-pow2":
        "6e1a2f600f48fb5e3fd6bf878b8de81f4007136792cedec3e079206ee6795f75",
    "fwipw_simplex5-AFW-ls":
        "890d178b6b11c9204e7b4f0145362d2124fa565afb620b17ad0ff7f44c2077cc",
    "fwipw_simplex5-AFW-ss":
        "8cc6269a789f18c77ba5b197493887ccc047e83528452a5db316afd0a590a2e8",
    "fwipw_simplex5-BPFW-ls":
        "634dc5f49bf3f6e6c4208335332f13cb1895b406737937736093b10955e1d6fe",
    "fwipw_simplex5-BPFW-ss":
        "bf002ef6e49472bb64b370c6006550f53b01804b46cbb8a35be468bdb1448b92",
    "fwipw_simplex5-FW-ls":
        "facd7f861a85fc9e87bd5771009910abc99c8750fa076348f71c7a7f7de69072",
    "fwipw_simplex5-FW-ss":
        "828828dbb15b7c1e1a8792b1657b98df37faef3960db59e7c0e543ecb42b9bdf",
    "fwipw_simplex5-IFW-ls":
        "bdec76c43d07914fa4e03651ed6eb4e692d6240c4a55f16e4018782f55381e9a",
    "fwipw_simplex5-IFW-ss":
        "658fcf24af00239ed1f6c91c66e93e1f3fa2457eee3e0db91792bfdce1ce2796",
    "fwipw_simplex5-FWIPW-pow2":
        "953118b369ce88dbaa7a0e64cd5c76d20d21897b6617adbffa9bc830e6314ee1",
}

BENCH_PINS = {
    "fwipw": "af9ac9b6846364a1bcec91210cc1e08f65ca8bccccae0d145bfcca0d833ebe95",
    "interior": "156300a7d04ec2e3cfb879850c2369df3b799f0239719cfb4fed7b486ab7d8d4",
    "theta-sweep": "e6e2ce188a7818de8153f773988113c1d16239564990d418c27a878d89d5d68f",
    "wolfe": "4427a82ee5fc5a8ab827e86295ae1eed863ec173efc2d09f67d0a48db39464df",
}


def test_every_run_is_pinned():
    assert set(IDS) == set(ENVELOPE_PINS)


@pytest.mark.parametrize("run_id,factory,variant,step",
                         [(i, *run) for i, run in zip(IDS, RUNS)], ids=IDS)
def test_envelope_digest(run_id, factory, variant, step):
    assert _run_digest(factory, variant, step) == ENVELOPE_PINS[run_id]


@pytest.mark.parametrize("suite", sorted(BENCH_PINS))
def test_bench_digest(suite, tmp_path):
    assert _bench_digest(suite, tmp_path) == BENCH_PINS[suite]
