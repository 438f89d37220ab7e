"""The README's examples stay in step with the package."""

import re
from pathlib import Path

import steptrack
from steptrack.scenario import load_scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language):
    blocks = re.findall(rf"```{language}\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block in the README"
    return blocks[0]


def test_readme_scenario_loads(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(_block("yaml"))
    scenario = load_scenario(path)
    assert scenario.duration == 600.0
    assert scenario.receiver.rng_seed == 42


def test_readme_library_names_are_exported():
    names = set(re.findall(r"\bst\.(\w+)", _block("python")))
    assert names and names <= set(steptrack.__all__)
    for name in names:
        assert hasattr(steptrack, name)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the example writes run.csv to the working directory
    exec(_block("python"), {})
    assert capsys.readouterr().out.startswith("BeaconStats(mean=")
    with open(tmp_path / "run.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 180_000  # header, one row per 20 ms of 1 h
