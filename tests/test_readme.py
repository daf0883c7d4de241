"""Every JSON config block of the README is a valid experiment config, so
a key the parser drops or a default that breaks an example shows here."""
import json
import re
from pathlib import Path

from fedcsi import cli

README = Path(__file__).parents[1] / "README.md"


def test_every_json_block_of_the_readme_parses():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 2
    for block in blocks:
        cli.config_from_dict(json.loads(block))
