"""Golden outputs: every shipped scenario writes the same bytes and exit code.

A run is a pure function of its scenario file, so `fbsecsim run` of each
shipped scenario, and `fbsecsim sweep` of the shipped sweep scenario, must
keep writing byte-identical files.  The pins below
are SHA-256 digests of each output file (None: the run writes no such
file).  A change that alters any output on purpose re-pins here and says
why.
"""

import hashlib
import os

import pytest

from fbsecsim.cli import main
from fbsecsim.data import list_scenarios, scenario_path

FILES = ("metrics.csv", "alerts.csv", "transitions.csv", "plant.csv", "trace.txt")

# scenario -> (exit code, {file: sha256 | None})
GOLDEN = {
    "baseline": (0, {
        "metrics.csv": "eae714e2bd9e95f290f7ae7a8cfb6343e72dc0881cbd6abd75ca1025762280a8",
        "alerts.csv": "f77eeb6447da44630a128d580c9141bbe4b10e72911b9e7d33263d4ce13da227",
        "transitions.csv": "221d29845c4f6758b80a4fa22b61135e22f0348762c2c007350ee30d23c2d72b",
        "plant.csv": "9ceabdaa74bc4352cb660d66517a10f346d29126d9e17b4a3263f9264e1fb4dc",
        "trace.txt": "24ef301b8d59ea74b39a44f799e781db0be669707dc5bc6201b899528b41b124",
    }),
    "icmp_collapse": (11, {
        "metrics.csv": "5c81d42a903d11b5c1462a23bb3c692fa73fdaca6295dcaf6f93cde59eda3455",
        "alerts.csv": "f77eeb6447da44630a128d580c9141bbe4b10e72911b9e7d33263d4ce13da227",
        "transitions.csv": "0a3cdc6caed982a6ccae39f576c270469c997452c6b80dd73d395e92ad68b9df",
        "plant.csv": "e899765adc69e96ff8cedee0f1276429f325b86adce63b9bc0072a49cd05af51",
        "trace.txt": "c8210c91802945bed81d9c1a8eaf6b1e49058ba147d873d0da38b7a0444b7a9d",
    }),
    "icmp_low": (0, {
        "metrics.csv": "029882b634c595010008fe3df71e59ded50be77e42eaea4eb123e86d1205f912",
        "alerts.csv": "f77eeb6447da44630a128d580c9141bbe4b10e72911b9e7d33263d4ce13da227",
        "transitions.csv": "221d29845c4f6758b80a4fa22b61135e22f0348762c2c007350ee30d23c2d72b",
        "plant.csv": "39a543b04cea35d6def0bb31af5477d0e019a2b5d7c2017b097ce343ebad95c0",
        "trace.txt": "df40564812dae430a74bfcc629065fffc8166feaa2e9064e3b7b5613137f9994",
    }),
    "spoof_blocked": (0, {
        "metrics.csv": "30df25f42d1489ad5ecec576c02aa9c34643b0fdfd34ee0ea23c4affef31409c",
        "alerts.csv": "fa0dae0392970b82684105cc56dba4ac48fc1155816fbcf59bfc53bf9c1f044b",
        "transitions.csv": "221d29845c4f6758b80a4fa22b61135e22f0348762c2c007350ee30d23c2d72b",
        "plant.csv": "65b32990ca5227c548b8ae96b9b22e98841c23cf88a5cd4438e342a092933b74",
        "trace.txt": "79c240900a5213d44c2ebee7196a77fb5b70822d81b210b69bd45c6be4582d86",
    }),
    "spoof_logonly": (10, {
        "metrics.csv": "d0ca72adec33023970763b2c9c78f014cc57798b9cc5160aa3dd5dc0b8b52a77",
        "alerts.csv": "fa0dae0392970b82684105cc56dba4ac48fc1155816fbcf59bfc53bf9c1f044b",
        "transitions.csv": "221d29845c4f6758b80a4fa22b61135e22f0348762c2c007350ee30d23c2d72b",
        "plant.csv": "94f7ce67fb1f850a84b2914848c3e94703e5a9701a23f543b60f26574388ce64",
        "trace.txt": "bcd14abc3228bdc4c46e39e9e29ff919c15564722e682a8eb0faca49af0eee2c",
    }),
    "spoof_unprotected": (10, {
        "metrics.csv": "1b5eca132ce9543f599e3757bf71e79622d943ff2f0e88dee62f0387e9c70750",
        "alerts.csv": "f77eeb6447da44630a128d580c9141bbe4b10e72911b9e7d33263d4ce13da227",
        "transitions.csv": "221d29845c4f6758b80a4fa22b61135e22f0348762c2c007350ee30d23c2d72b",
        "plant.csv": "94f7ce67fb1f850a84b2914848c3e94703e5a9701a23f543b60f26574388ce64",
        "trace.txt": "f4587f074b75abf34c3f911ea6777b3a4866ced0a580098fff53cd2eefdcd840",
    }),
    "sweep": (0, {
        "metrics.csv": "584df7989c29070cf015215bf6ee4014b2860adc9607e9f433c202f7bb48a381",
        "alerts.csv": "f8271414af626ad067d3e633bdda94d40a6a0f3fca08518708cc7013e66024d2",
        "transitions.csv": "221d29845c4f6758b80a4fa22b61135e22f0348762c2c007350ee30d23c2d72b",
        "plant.csv": "e5f9169264496988506116c51fdf04f3c5b4e55752cd0c575e85d401162c9faa",
        "trace.txt": "caf96f742cdadd42cd669d9d6b3f0071263a589641eeca03529dfd0b67538ee3",
    }),
    "syn_flood": (0, {
        "metrics.csv": "f57c607498bf2a668145932ab008680b6c5a5ee8e9a14f6f38d1bc047a2200af",
        "alerts.csv": "f77eeb6447da44630a128d580c9141bbe4b10e72911b9e7d33263d4ce13da227",
        "transitions.csv": "221d29845c4f6758b80a4fa22b61135e22f0348762c2c007350ee30d23c2d72b",
        "plant.csv": "26a60b23447f2e6c78c7d8ac295290e6ed0d1a01aa9b75cd64a2bfc6d41b1676",
        "trace.txt": "5d03d0d59d1184efce4660529eeb6cec0960e639c3f0b6411c247519077b0813",
    }),
    "udp_flood": (0, {
        "metrics.csv": "8bb0a40489af8c901ac4b8d91dd2b0a878fe7b802972d8b0e954829a6cfaa3b1",
        "alerts.csv": "f77eeb6447da44630a128d580c9141bbe4b10e72911b9e7d33263d4ce13da227",
        "transitions.csv": "52edd9806f8f6a32a3826f8495f777d3aae910602f18b0dad2917885a661fc41",
        "plant.csv": "65b32990ca5227c548b8ae96b9b22e98841c23cf88a5cd4438e342a092933b74",
        "trace.txt": "9904421acb1d158ffce72d8cae8d380f06341c2f5f6df93350e4478c36f3e541",
    }),
}


# `fbsecsim sweep` of the shipped sweep scenario: its attack, two rates kept
# cheap for the suite, and the SHA-256 of sweep.csv.
SWEEP_ARGS = ("--attack", "flood", "--rates", "10000,100000")
SWEEP_GOLDEN = "f149b6c737322116654964b1b2f7d3134b0ec1bf8fd93fb00b7af550f2f75a4b"


def run_digests(name: str, out_dir: str) -> tuple[int, dict[str, str | None]]:
    """Run one shipped scenario through the CLI; return its exit code and file digests."""
    code = main(["run", scenario_path(name), "--out", out_dir])
    digests = {}
    for f in FILES:
        path = os.path.join(out_dir, f)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[f] = hashlib.sha256(fh.read()).hexdigest()
        else:
            digests[f] = None
    return code, digests


def test_every_shipped_scenario_is_pinned():
    assert sorted(GOLDEN) == list_scenarios()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden(name, tmp_path, capsys):
    code, digests = run_digests(name, str(tmp_path / "out"))
    capsys.readouterr()
    want_code, want_digests = GOLDEN[name]
    assert code == want_code
    assert digests == want_digests


def test_sweep_matches_golden(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", scenario_path("sweep"), *SWEEP_ARGS, "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    with open(out_dir / "sweep.csv", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SWEEP_GOLDEN
