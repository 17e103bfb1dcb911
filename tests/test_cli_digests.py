"""sha256 pins of whole CLI outputs, run in-process through cli.main.

Text output is hashed as printed.  Structured output is hashed the way a
JSON consumer re-serializes it: parsed, cut to the part the pin covers
(by default everything but the run-dependent `meta` block), and dumped with
compact separators.
"""

import hashlib
import json
from operator import itemgetter

import pytest

from klcells.cli import main


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _without_meta(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "meta"}


def _json_digest(payload) -> str:
    return _digest(json.dumps(payload, separators=(",", ":")))


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_verify_output_keeps_its_digests(capsys):
    code, out = _run(capsys, "verify", "--max-n", "8")
    assert code == 0
    assert _digest(out) == "65dd0750da226264735d3b9a059ec50f3bb4699a31f465115d274430c954a9ee"
    code, out = _run(capsys, "verify", "--max-n", "8", "--format", "structured")
    assert code == 0
    assert _json_digest(_without_meta(json.loads(out))) == (
        "8ac2424a80593481bc4ee2226d5d31e39c1f7e8b45c581caeb4d5798a0870b8a"
    )


# ring files written by `ring --n N --qn --format ringfile`, named in argv
_RING_FILES = {"q7.ring": 7, "q8.ring": 8}

# the part of the output a pin hashes
_HASHED = {
    "text": None,
    "no meta": _without_meta,
    "with meta": dict,  # meta and its search-dependent bound_exhausted included
    "ring": itemgetter("ring"),
}


def _candidate_count(payload):
    return len(payload["candidates"])


def _bound_exhausted(payload):
    return payload["meta"]["bound_exhausted"]


def _classify(*args):
    return ("classify", *args, "--format", "structured")


def _characters(n):
    return ("characters", "--n", str(n), "--format", "structured")


# (argv, hashed part, digest, (read, value) or None: a fact read off the
# structured payload besides its digest)
_PINS = [
    (_classify("--n", "3"), "no meta",
     "847fba0bdf2db9c7f1b1e5fdafc10c67a39870f148b02276f131690117d47cf4", None),
    (_classify("--n", "4"), "no meta",
     "9d3ca38c38c046cd82dc2d2bc79288c858dd667cb7f865cec374466328935fe5", None),
    (_classify("--n", "5"), "no meta",
     "81213359588bfc61c95c9fb4317e5db571b687a60798e85e67c4911026861dd3", None),
    (_classify("--n", "6"), "no meta",
     "ae7852dbee290e6fbcf1293138c7d040e17355ae4cf732f70c455ba15bb75ea9", None),
    # Q7 is the one cubic field classified here: exact signs and inverses of degree 3
    (_classify("--ring-file", "q7.ring"), "no meta",
     "3b74862438f89e13b1e28a2a835d26cbd1fe8a43ec162080e502211b20d3c0e9",
     (_candidate_count, 19)),
    (_classify("--ring-file", "q8.ring"), "no meta",
     "9abd21312eae75a6d2fc5924e42df1d36c0cb5f989377f67387e504348a6d921",
     (_candidate_count, 65)),
    (_classify("--n", "4", "--bound", "2"), "with meta",
     "46dbbd8bcf32f6db668017f1b7d8b919a6a945a2364fa071d24c040562254c08",
     (_bound_exhausted, True)),
    (_classify("--n", "4", "--bound", "3"), "with meta",
     "af579aa1a3af811bef783a8b3afe120a9ee23e148913cdfebf6fda335c5800bd",
     (_bound_exhausted, False)),
    (_classify("--n", "6", "--max-rank", "4", "--bound", "8"), "with meta",
     "49cfdafb54c33975c06b5be18e17db031d537dab41beb95078a402b65fc6fa5f",
     (_bound_exhausted, True)),
    (("classify", "--n", "3"), "text",
     "e358b4af6ff766e2d769d46a122ccd6a52344d2ce54123f7f456ba7bff2a74df", None),
    (("classify", "--n", "4"), "text",
     "2b3d84a55d154fdecfc5d9c05f9237da6ef55ced0da4e33790935360a5d7c203", None),
    (("classify", "--n", "5"), "text",
     "610b60b5299a23752d5eec6cc86deae9f44a03f023ef6ede6b03e540711a1867", None),
    (("classify", "--n", "6"), "text",
     "094f6e4ad11f53f4ecbc3acdafac224eeae39add1686da85b3d91f7c75a962ec", None),
    (("classify", "--ring-file", "q7.ring"), "text",
     "44c672b418d8f9e7d138f132f416712a6f302cc0232a2af6bf1c400cbfd51595", None),
    (("classify", "--ring-file", "q8.ring"), "text",
     "52627201fdf03827c854b75bbde1c654352875a1f6912fd27bb39f86c54c918e", None),
    # rows sorted by exact signs in Q(√5), Q(√2), Q(√5), Q(√3) and a quartic field
    (_characters(5), "no meta",
     "e3c5aeec901808afbb53c2735df7786e0a8b0b84014d9c536bee2988603f2760", None),
    (_characters(8), "no meta",
     "d3a9994d5fc4cac22a38f4bf920b7eb5b71df3aa9223b3773a93480ff9b9ce55", None),
    (_characters(10), "no meta",
     "232d853e0fa93d2a42841cdcadbe7ea59a3f9a362fe6a980eab879a262ea6844", None),
    (_characters(12), "no meta",
     "3336028f133f4d3d70f58496a83dbbfe241e133cc96b3319cb75c344f21cd964", None),
    (_characters(24), "no meta",
     "7a37c9bdc9fb221f839d3081464847d70a885da66917112295f626047969df6e", None),
    # the full KL table at n = 64 needs 32-bit digits
    (("ring", "--n", "64", "--full-kl", "--format", "structured"), "ring",
     "ece9bf5fbe20ea9fadc0c0702680b128fe80ebf57defaaff3e31858667c59e9f", None),
]


@pytest.mark.parametrize(
    "argv, hashed, digest, fact",
    _PINS,
    ids=[f"{' '.join(argv)} [{hashed}]" for argv, hashed, _, _ in _PINS],
)
def test_cli_output_keeps_its_digest(argv, hashed, digest, fact, capsys, tmp_path):
    for name, n in _RING_FILES.items():
        if name in argv:
            code, text = _run(capsys, "ring", "--n", str(n), "--qn", "--format", "ringfile")
            assert code == 0
            (tmp_path / name).write_text(text)
    code, out = _run(capsys, *(str(tmp_path / a) if a in _RING_FILES else a for a in argv))
    assert code == 0
    if hashed == "text":
        assert _digest(out) == digest
        return
    payload = json.loads(out)
    if fact is not None:
        read, want = fact
        assert read(payload) == want
    assert _json_digest(_HASHED[hashed](payload)) == digest
