"""Golden artifacts: the CSV and PGM bytes of the raster scenarios.

Five scenarios whose numbers come from the span kernel and the interior
probe run at seed 0 on 512-cell grids (2048 probe rows), and every CSV and
PGM they write must hash to the digests recorded here.  A change to the
raster code that moves any byte fails this test; a deliberate behaviour
change records new digests and says why.
"""

import hashlib
import warnings

from gmtlab.reporting import write_report
from gmtlab.scenarios import SCENARIOS, run_scenario

SIZES = {"n": 512, "probe_n": 2048}

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
}


def test_raster_scenarios_reproduce_golden_bytes(tmp_path):
    written = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sid in dict.fromkeys(key.split("/")[0] for key in DIGESTS):
            defaults, _ = SCENARIOS[sid]
            out = tmp_path / sid
            out.mkdir()
            report = run_scenario(sid, {k: v for k, v in SIZES.items() if k in defaults},
                                  seed=0, out_dir=out)
            write_report(report, out)
            written.update((f"{sid}/{p.name}", hashlib.sha256(p.read_bytes()).hexdigest())
                           for p in out.iterdir() if p.suffix in (".csv", ".pgm"))
    assert written == DIGESTS
