"""Every JSON config block and every `fedcsi` command of the README is
valid, so a key the parser drops, a default that breaks an example or an
option the CLI no longer has shows here."""
import json
import re
import shlex
from pathlib import Path

from fedcsi import cli

README = Path(__file__).parents[1] / "README.md"


def test_every_json_block_of_the_readme_parses():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 2
    for block in blocks:
        cli.config_from_dict(json.loads(block))


def test_every_fedcsi_command_of_the_readme_parses():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("fedcsi ")]
    assert len(commands) >= 4
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
