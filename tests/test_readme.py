"""The README's examples run as written, and its key table is complete."""

import re
import shlex
from pathlib import Path

from gossipsim import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)


def test_python_blocks_run():
    blocks = _blocks("python")
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_key_table_names_every_config_key():
    keys = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", TEXT, re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(cli.CONFIG_SPEC) | set(cli.SWEEP_SPEC)


def test_shell_commands_run(tmp_path, serial_pool):
    commands = [line for block in _blocks("sh")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("gossipsim ")]
    assert commands, "README has no gossipsim command"
    for i, line in enumerate(commands):
        argv = shlex.split(line)[1:]
        argv[argv.index("--out") + 1] = str(tmp_path / str(i))
        assert cli.main(argv) == 0, line
