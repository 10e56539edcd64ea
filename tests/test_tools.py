"""The committed mutants (tools/mutants.json) still point at real code and tests.

tools/mutate.py runs them; this only checks, cheaply, that a refactor
moved each mutant's old text along with the code it names.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mutant_old_texts_occur_once():
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text())["mutants"]
    assert [m["name"] for m in mutants if m.get("survives")] == ["no-op"]
    for mutant in mutants:
        name = mutant["name"]
        assert mutant["file"].startswith("src/"), name
        assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1, name
        assert mutant["new"] != mutant["old"], name
        assert mutant["tests"], name
        for test_id in mutant["tests"]:
            path, *_, test = test_id.split("::")
            assert f"def {test.split('[')[0]}(" in (ROOT / path).read_text(), test_id
