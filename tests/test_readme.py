"""The README's examples run as written.

The shell blocks' heredoc and ``echo`` lines write their configs into a
temporary directory, each ``efy <command> --config <file>`` line runs
through ``main``, and the two Python snippets are executed.
"""
import json
import re
from pathlib import Path

import pytest

from efy.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```(sh|python)\n(.*?)```", README, re.S)


def run_shell_blocks():
    """Write every config the shell blocks write; return the ``efy`` command lines in order."""
    commands = []
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        for name, text in re.findall(r"cat > (\S+) <<'JSON'\n(.*?)\nJSON\n", body, re.S):
            Path(name).write_text(text)
        for text, name in re.findall(r"^echo '(.*)' > (\S+)$", body, re.M):
            Path(name).write_text(text)
        commands += re.findall(r"^efy (\w+) --config (\S+)", body, re.M)
    return commands


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EFY_SEED", raising=False)
    commands = run_shell_blocks()
    assert [c for c, _ in commands] == ["train", "eval", "gradcheck", "conjbench", "calibcheck"]
    out = {}
    for command, config in commands:
        json.loads(Path(config).read_text())
        assert main([command, "--config", config]) == 0, command
        out[command] = capsys.readouterr().out
    assert {p.name for p in Path("run").iterdir()} == {"metrics.csv", "summary.json", "params.bin"}
    assert "test_accuracy" in json.loads(Path("run/summary.json").read_text())
    assert out["eval"].startswith("accuracy ") and "on 100 instances" in out["eval"]
    assert len(Path("pred.csv").read_text().splitlines()) == 2 + 100
    assert out["gradcheck"].startswith("gradcheck pairwise: max relative error")
    assert "value 0.25\n" in out["conjbench"]
    assert "argmax 0.5\n" in out["conjbench"]
    assert "status closed_form" in out["conjbench"]
    assert Path("trace.csv").read_text().splitlines()[1] == "iteration,objective,optimality_gap"
    assert "pass over 200 inputs" in out["calibcheck"]
    assert len(Path("calib.csv").read_text().splitlines()) == 2 + 200


SNIPPETS = [body for lang, body in BLOCKS if lang == "python"]


@pytest.mark.parametrize("snippet", SNIPPETS, ids=[f"snippet{i}" for i in range(len(SNIPPETS))])
def test_python_snippets(snippet, capsys):
    exec(compile(snippet, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out and "nan" not in out
