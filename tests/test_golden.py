"""Golden output digests: `kbevolve evolve` on seeded synthetic inputs must
keep writing the same snapshot, report CSV, typing audit and domain audit,
byte for byte.

The digests were taken from the full-scan passes that the incremental
ones replaced, so any change in these bytes is a change in behaviour. The
`stripped` case drops every schema domain and runs in 7 batches, so
generalization both adds and removes domains between batches, and typing
reacts to both.
"""

import hashlib

import pytest

from kbevolve.cli import main
from kbevolve.kb import RDFS_DOMAIN
from kbevolve.ntriples import triple_to_line
from kbevolve.synth import SynthSpec, generate_kb

CASES = {
    # name: (spec, strip schema domains, batch_lines)
    "complete": (SynthSpec(8, 4, 2, 10, 0.5, 0.2, seed=11), False, 100),
    "stripped": (SynthSpec(6, 4, 2, 12, 0.5, 0.25, seed=3), True, 60),
}

OUTPUTS = ("snapshot.nt", "report.csv", "typing.csv", "domains.csv")

GOLDEN = {
    ("complete", "naive"): {
        "snapshot.nt": "e882cf7233c2eaf060b5692f76b2cea8448534d3a9280969d7bf453ef84045d1",
        "report.csv": "2d22930601a278f6316e2f126169f9be44187830e29cc8561af68d9952b949b0",
        "typing.csv": "aaf49de99e19f162445cbff58e8f858f44a2a8862331caa4724517e3730d9667",
        "domains.csv": "2379bb8b5bc891e848a75c3eb8fbb6e4dad4029a1a92bfdf218877631147a8a6",
    },
    ("complete", "cosine"): {
        "snapshot.nt": "e882cf7233c2eaf060b5692f76b2cea8448534d3a9280969d7bf453ef84045d1",
        "report.csv": "2d22930601a278f6316e2f126169f9be44187830e29cc8561af68d9952b949b0",
        "typing.csv": "8cffb5160d24e091953c080de7373816a63351dce1181c118f698355edfeb476",
        "domains.csv": "2379bb8b5bc891e848a75c3eb8fbb6e4dad4029a1a92bfdf218877631147a8a6",
    },
    ("complete", "pfidf"): {
        "snapshot.nt": "e882cf7233c2eaf060b5692f76b2cea8448534d3a9280969d7bf453ef84045d1",
        "report.csv": "2d22930601a278f6316e2f126169f9be44187830e29cc8561af68d9952b949b0",
        "typing.csv": "e94910c8f035c1fc57c02e2c737e3d2d412482f23d8b4fc345917e322a361699",
        "domains.csv": "2379bb8b5bc891e848a75c3eb8fbb6e4dad4029a1a92bfdf218877631147a8a6",
    },
    ("stripped", "naive"): {
        "snapshot.nt": "d1df5403c4521283360f777c8febf7998db76cdf5eaefb24256ff5891f78a5d6",
        "report.csv": "892c09b411a49951fe101b088dcaae377add2fda51d3aa565870533c11a800ea",
        "typing.csv": "013d7ebd3e4ce5830238c89a2be4391760799214eef5fdb601c09ec9ecb991b4",
        "domains.csv": "6b0586513a9828a22704a4e039a8a88d71da3f5da0a52095b3ccae4285c2d8d4",
    },
    ("stripped", "cosine"): {
        "snapshot.nt": "d1df5403c4521283360f777c8febf7998db76cdf5eaefb24256ff5891f78a5d6",
        "report.csv": "23a3ac3b256064a8d396c0b2fa4ad8ef50c864af52f268b649a2e9c1f7d11990",
        "typing.csv": "5db46dfcebed4c9787ec68714e1325fe0530d6b96d7383320ac737cede5efc3a",
        "domains.csv": "61073cdba8714a0c9db76438d1795197eda5271948921c9bf92fe280dffa0e96",
    },
    ("stripped", "pfidf"): {
        "snapshot.nt": "d1df5403c4521283360f777c8febf7998db76cdf5eaefb24256ff5891f78a5d6",
        "report.csv": "9d5570f80b1a95088adb8e2d5988b7ea724f32abfa88e49543fb70d6e5756d6e",
        "typing.csv": "a30fd23242564093ad2eee674b123b52a03222a84dcbc5cb695802d316d14b63",
        "domains.csv": "8d8c3a443f5c41619fbf8c026479b4f411b1ab7f01251aef65aa52a0a14f66de",
    },
}


def _write(path, triples):
    path.write_text("".join(triple_to_line(t) + "\n" for t in triples), encoding="utf-8")


def _digests(tmp_path, case: str, method: str) -> dict[str, str]:
    spec, strip, batch_lines = CASES[case]
    schema, instances, _ = generate_kb(spec)
    if strip:
        schema = [t for t in schema if t.predicate.value != RDFS_DOMAIN]
    _write(tmp_path / "schema.nt", schema)
    _write(tmp_path / "instances.nt", instances)
    out = {name: tmp_path / name for name in OUTPUTS}
    code = main(
        [
            "evolve",
            str(tmp_path / "schema.nt"),
            str(tmp_path / "instances.nt"),
            "--batch-lines", str(batch_lines),
            "--method", method,
            "--out", str(out["snapshot.nt"]),
            "--report", str(out["report.csv"]),
            "--typing-audit", str(out["typing.csv"]),
            "--domain-audit", str(out["domains.csv"]),
        ]
    )
    assert code == 0
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}


@pytest.mark.parametrize("method", ["naive", "cosine", "pfidf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(tmp_path, case, method):
    assert _digests(tmp_path, case, method) == GOLDEN[case, method]


def test_stripped_case_adds_and_removes_domains(tmp_path):
    """The stripped case really exercises both directions of the
    domain table, across more than two batches."""
    _digests(tmp_path, "stripped", "pfidf")
    rows = (tmp_path / "domains.csv").read_text(encoding="utf-8").splitlines()[1:]
    actions = {row.split(",")[2] for row in rows}
    assert actions == {"added", "removed"}
    batches = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(batches) >= 3
