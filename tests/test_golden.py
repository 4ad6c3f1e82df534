"""Golden artifacts: the CSV and PGM bytes and the verdicts of every scenario.

All eight scenarios run at seed 0 on 512-cell grids (2048 probe rows, and
100_000 Monte Carlo samples per intersection-hypothesis volume).  Every CSV
and PGM they write must hash to the digests recorded here, and every verdict
must equal its recorded (name, threshold, measured, passed) row, so a verdict
whose comparison flips fails even when the series bytes do not move.  A
change that moves any byte or verdict fails this test; a deliberate
behaviour change records new values and says why.  The suite turns warnings
into errors, so a golden size that makes a band alias fails too.
"""

import hashlib

import pytest

from gmtlab.reporting import write_report
from gmtlab.scenarios import SCENARIOS, run_scenario

SIZES = {"n": 512, "probe_n": 2048}
OVERRIDES = {"intersection-hypothesis": {"samples": 100_000}}

DIGESTS = {
    "fixed-level-positivity/cxc-area-depth6.csv":
        "5b93dfe84a7907398441ad3bb3f9d44ef7768aa1924a8b68a396ccb750a60aa9",
    "fixed-level-positivity/cxc-stability-depth6.csv":
        "e91e7a48772e5cd281274530887f95e90d1dce349f08b054df066bc518fb267d",
    "fixed-level-positivity/fixed-level-positivity_512_0.01.pgm":
        "953234e87efeaa72b59880b2ff2fc69e7e5b10becd136c0d0b83ebb8bdb86756",
    "fixed-level-positivity/line-area-depth6.csv":
        "4e1913adc4b37d2d4f4bc3d9fcd006f5575f412a4d1f36c5df17c653d86a866a",
    "fixed-level-positivity/line-shrink-depth6.csv":
        "6e84a5c55f3a935280013d79cc8a449cc71e4cf5eb5739bff2d044c7d8476f75",
    "flat-counterexample/circle-area-d0.01.csv":
        "f1417df1cb4ccb145f0bae28b006d211a69fd01a01a50f7c6b288503dd03a199",
    "flat-counterexample/circle-step-ratio.csv":
        "fa267e35d96663fe8056e4a59544fcfbcf3995407ded06e9f4d92095da65bccc",
    "flat-counterexample/flat-counterexample_512_0.01.pgm":
        "02bb3c14b87bb49374982e159b92a0a75fbd39dd471e0a6170c005f719e91832",
    "flat-counterexample/square-area-d0.01.csv":
        "441e2044866fe69db2568ac5d30e901fb59cf5cbab93b4269619fed3840b616b",
    "flat-counterexample/square-ladder-depth5.csv":
        "11eaf805c75ecebc31e29a2519f52a4a1e916068c4b63e136ea03c4d0c9343a6",
    "flat-counterexample/square-step-ratio.csv":
        "e57927962bb4486993f83d6f3bb0a6ca8fc4f5d6858b9a73ce482534cd2976a0",
    "flat-counterexample/zero-area-intercept.csv":
        "af6134c215a6207577a81552d39b5652aacda9ff0bbdbe8f749c9184fcefa0b5",
    "interior-failure/area-d0.01.csv":
        "0eab8087def56861ac244af49523b4166bfc4d67d872fa567847dea98bca2451",
    "interior-failure/area-ladder-depth6.csv":
        "9be9393357fbaea8ba071f27e82f4742b4650e991119e2c27dc54d3ae9ea8a02",
    "interior-failure/interior-failure_512_0.01.pgm":
        "279877afee782bc2314e02a22173934fcb84868881f11989d2222e8e6ca0b823",
    "interior-failure/max-run.csv":
        "21e0e4d620facbf1636b8482c30425806d2b456aced561a5c41ded9da6a50d77",
    "interior-failure/run-bound.csv":
        "2395ba2629a14d16636da3b1545f77bae741033acb9bf4d5b6a0a04ca9de4ce4",
    "interior-failure/run-step-ratio.csv":
        "619548b47b94b67a376236861be5eb45963a26a8c039d65d8b4943fccb1ff12d",
    "kakeya-compression/area-step-ratio.csv":
        "662da0b86c5d6cbc7ae5bc706d0a17d10eef03c33f7ebc6cb74c12565c69a502",
    "kakeya-compression/compression.csv":
        "137a60c61b3744fd2426b15d4aa6218915eef5d1fac51c511cef907e51b44b3d",
    "kakeya-compression/direction-coverage.csv":
        "063fadcfe76cc7616375a7521393ac75ff44a056c40d29b8f424538a98d09302",
    "kakeya-compression/directions.csv":
        "d5741e3e63b9c8f2bf6e935d98660492f165f8ffd53c78b854b10dc2ae789b0f",
    "kakeya-compression/kakeya-compression_512_0.pgm":
        "dbc13d753e23970e2d846268a701623daa730df0c3b6ce9888b0652f51eb9f1f",
    "kakeya-compression/union-area.csv":
        "4bb408e0948e3ad1d68bd9a372ec200300c7af3e083dd1c8561669d82cc63083",
    "discrete-incidence/area-spread.csv":
        "1e756c81373b6d5a7fc5805f27df20a0dae22614dfa01b5b94cbc651c53922e4",
    "discrete-incidence/band-width.csv":
        "58e0116239a330ceaa676200d126af1e5a25ee0247e9601c9cd8766ea3263964",
    "discrete-incidence/discrete-incidence_512_0.00984313.pgm":
        "6518c1e034074f98a9fe8aedad432ce13da51c441d9b99d76d5af950a5a4d34a",
    "discrete-incidence/incidence-integral.csv":
        "b7c8cb8b10aa9eac51b9e53098f5db4c891f4d9d4846cd1a8d6ee4d931f98089",
    "discrete-incidence/incidence-slack.csv":
        "618c0e7baebf16381520682ff74e0fdbf78f709256224ac7bf50b631136e8184",
    "discrete-incidence/unit-area.csv":
        "19ce5faef840699405ebe06989257c165d1db51cb8745e9320cb252ef2bb2397",
    "intersection-hypothesis/diffeo-ratio-d0.02.csv":
        "f453b2e65fc88c14a2cd33423dfc5d9faa5e015986d265dd356272f4a6dc15a0",
    "intersection-hypothesis/diffeo-ratio-d0.04.csv":
        "797ff9209bca173ca03b7baeb4d096ee66bdac1a84e170de640fe69080ea2553",
    "intersection-hypothesis/diffeo-relerr-d0.02.csv":
        "e9935522f3be3328b5618a7b94838bbdc98fcdb61d271faabeeb9050ad85c915",
    "intersection-hypothesis/diffeo-relerr-d0.04.csv":
        "a9cfaead512a852e059ddedfc6cac3b929c079945be0657f56b5f03d360dab3a",
    "intersection-hypothesis/paraboloid-growth.csv":
        "e4600e1166a481dcf714b26d22104863945feef3f9c4cebe3eb4a6b39140632f",
    "intersection-hypothesis/paraboloid-ratio-d0.02.csv":
        "2bb92c4ed74e39bdfa82af912ce38179c8ce19c25f9e1db6bdf11d7a660f42f4",
    "intersection-hypothesis/paraboloid-ratio-d0.04.csv":
        "d46aa9866e9aa24136421a682cff7438a8a8dcaf7f50b533c39e543031700691",
    "intersection-hypothesis/paraboloid-relerr-d0.02.csv":
        "94aba8ce22961f86af7bf066b1a2ca8f0fa715409d8abc306a1871705190a306",
    "intersection-hypothesis/paraboloid-relerr-d0.04.csv":
        "05f3cca5c47f53ab022457e7c7d2641d6851373e34b2d71c8c6a6611ba79ac9f",
    "bourgain-compression/max-residual.csv":
        "08579cf6288d53d94db4890eb8e378d1e220680396263524f2b20455a5851c3e",
    "transversality/jacobian-err-by-u.csv":
        "cd18d45ea247115a3fba1d01f85d5bde69b34a10c95f663a8edb226e3b64373a",
    "transversality/jacobian-min-by-u.csv":
        "6c7b504decfaa000f7b419a190c7208362f301f6456da7a7141fb71f0182ce7a",
}

VERDICTS = {
    "fixed-level-positivity": [
        ("union-area-floor", 0.5, 7.634296875000001, True),
        ("union-area-stability", 0.05, 0.04345364135994845, True),
        ("control-shrink", 0.5, 0.5900116942973104, False),
    ],
    "flat-counterexample": [
        ("flat-shrink", 0.8, 1.1621035164975428, False),
        ("curved-growth", 1.0, 1.0237854292648814, True),
        ("zero-area-intercept", 0.05, 4.521521526834241, False),
    ],
    "discrete-incidence": [
        ("area-floor", 6.0, 7.6828906250000015, True),
        ("area-spread", 2.0, 1.0065994854638451, True),
        ("incidence-dominates", 0.0, 42.53523437500001, True),
    ],
    "intersection-hypothesis": [
        ("intersection-bound", 50.0, 27.69736784999999, True),
        ("degenerate-growth", 1.8, 1.8322493969649782, True),
    ],
    "interior-failure": [
        ("area-floor", 0.3, 2.90020751953125, True),
        ("run-monotone", 1.0, 1.0, True),
        ("run-bound", 0.021923828125, 0.19374999999999998, False),
    ],
    "kakeya-compression": [
        ("area-monotone", 1.0, 0.9243642686372527, True),
        ("stage-compression", 0.35, 0.3251031952300871, True),
        ("direction-coverage", 1.0, 1.0, True),
    ],
    "bourgain-compression": [
        ("hypersurface-identity", 1e-12, 4.440892098500626e-16, True),
    ],
    "transversality": [
        ("jacobian-matches-cosine", 0.001, 1.8147894298436995e-10, True),
        ("transversal-floor", 0.49, 0.5136773915247882, True),
    ],
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """(sha256 per written CSV/PGM, verdict rows per scenario) of one seed-0 run."""
    written, verdicts = {}, {}
    for sid, (defaults, _) in SCENARIOS.items():
        out = tmp_path_factory.mktemp(sid)
        overrides = {k: v for k, v in SIZES.items() if k in defaults}
        report = run_scenario(sid, {**overrides, **OVERRIDES.get(sid, {})},
                              seed=0, out_dir=out)
        write_report(report, out)
        written.update((f"{sid}/{p.name}", hashlib.sha256(p.read_bytes()).hexdigest())
                       for p in out.iterdir() if p.suffix in (".csv", ".pgm"))
        verdicts[sid] = [(v.name, v.threshold, v.measured, v.passed) for v in report.verdicts]
    return written, verdicts


def test_raster_scenarios_reproduce_golden_bytes(golden_run):
    assert golden_run[0] == DIGESTS


def test_scenarios_reproduce_golden_verdicts(golden_run):
    assert golden_run[1] == VERDICTS
