"""The README's examples run as written: each python block, and the YAML
config, whose overrides equal the 3.5 GHz preset's own values, reproduces
the default overtaking run byte for byte."""

import re
from pathlib import Path

import pytest

from v2vbounds import app

ROOT = Path(__file__).resolve().parents[1]


def readme_blocks(language: str) -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


PYTHON_BLOCKS = readme_blocks("python")


def test_readme_has_its_examples():
    assert len(PYTHON_BLOCKS) >= 2 and len(readme_blocks("yaml")) == 1


@pytest.mark.parametrize("code", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_example_runs(code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # an example may write a file
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})


def test_yaml_config_reproduces_the_default_run(tmp_path, monkeypatch, capsys):
    [config] = readme_blocks("yaml")
    monkeypatch.chdir(tmp_path)
    Path("run.yaml").write_text(config, encoding="utf-8")
    assert app.main(["--config", "run.yaml"]) == 0
    expected = ROOT / "bench" / "ref" / "overtaking_cfg_3p5GHz.csv"
    assert Path("overtaking.csv").read_bytes() == expected.read_bytes()
