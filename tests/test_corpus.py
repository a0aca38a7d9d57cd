"""The bundled corpus: each case is a problem file and a golden file."""

import importlib.resources
import json

import pytest

from cq_analyzer.corpus import CORPUS, _load_corpus, corpus_path, run_case

CORPUS_DIR = importlib.resources.files("cq_analyzer") / "corpus"


def bundled(suffix):
    return sorted(e.name[: -len(suffix)] for e in CORPUS_DIR.iterdir() if e.name.endswith(suffix))


def test_every_problem_file_has_a_golden_file_and_back():
    goldens = bundled(".golden.json")
    problems = [name for name in bundled(".json") if not name.endswith(".golden")]
    assert problems == goldens == list(CORPUS)
    assert len(CORPUS) == 9


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_problem_file_is_named_after_its_stem(name):
    data = json.loads(corpus_path(f"{name}.json").read_text(encoding="utf-8"))
    assert data["name"] == name


@pytest.mark.parametrize("change, key", [
    (lambda golden: golden.update(descripton="typo"), "descripton"),
    (lambda golden: golden["expected"].update(rank_kk=2), "rank_kk"),
    (lambda golden: golden.pop("hand_ranks"), "hand_ranks"),
    # Each of these three crashed ``corpus run``: the kkt check read a section
    # that was never run, run_analyses refused the analysis, and the relation
    # named a third constraint value of a case that has two.
    (lambda golden: golden["expected"].update(kkt="multipliers-exist"), "kkt"),
    (lambda golden: golden.update(analyses=["rcrcq", "abadie", "dependnce"]), "dependnce"),
    (lambda golden: golden.update(witness_relation="y1^2 - y3^3"), "y3"),
])
def test_a_golden_file_with_a_key_out_of_place_raises_naming_the_file(tmp_path, change, key):
    golden = dict(CORPUS["cusp-powers"], expected=dict(CORPUS["cusp-powers"]["expected"]))
    change(golden)
    (tmp_path / "cusp-powers.golden.json").write_text(json.dumps(golden), encoding="utf-8")
    (tmp_path / "cusp-powers.json").write_text(
        corpus_path("cusp-powers.json").read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"cusp-powers\.golden\.json.*'{key}'"):
        _load_corpus(tmp_path)


def test_golden_multiplier_keys_print_as_constraint_indices():
    checks = {c["label"]: c for c in run_case("circle-point")["checks"]}
    assert checks["multipliers"]["expected"] == "{1: 0.5}"
    assert checks["multipliers"]["pass"] is True
    assert checks["corrector decay slope"]["expected"] == "in [1.8, 2.2]"
