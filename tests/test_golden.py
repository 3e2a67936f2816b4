"""Golden reports: ``analyze(...).to_json()`` must stay byte-identical.

``tests/data/reports.jsonl`` holds one report per input below, in order.
A change that alters any report on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

from pathlib import Path

from whdetect.catalog import Epsilon, SeifertInvariants, builtin_groups, dicyclic
from whdetect.pipeline import analyze

GOLDEN = Path(__file__).resolve().parent / "data" / "reports.jsonl"

SEIFERT = (
    SeifertInvariants(-1, Epsilon.O1, 0, ((2, 1), (3, 1), (5, 1))),  # Poincare sphere
    SeifertInvariants(-1, Epsilon.O1, 0, ((2, 1), (2, 1), (3, 1))),  # prism manifold
    SeifertInvariants(3, Epsilon.O1, 0),  # lens space
    SeifertInvariants(0, Epsilon.O1, 1),  # 3-torus
    SeifertInvariants(0, Epsilon.O2, 1),
)


def reports() -> list[str]:
    out = [analyze(e).to_json() for e in builtin_groups(240)]
    out += [analyze(s).to_json() for s in SEIFERT]
    out.append(analyze(dicyclic(12), budget=20).to_json())  # budget runs out
    return out


def test_reports_match_golden():
    expected = GOLDEN.read_text().splitlines()
    got = reports()
    assert len(got) == len(expected)
    for line, (g, e) in enumerate(zip(got, expected), 1):
        assert g == e, f"report {line} differs"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(line + "\n" for line in reports()))
