"""The README's fenced ``python`` blocks run as written, so a renamed or
removed export cannot leave its library examples broken, and its flag list
names exactly the flags the CLI parses."""

import re
from pathlib import Path

from zicarq.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks, "README.md has no fenced python block"
    for k, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {k}", "exec"), {})


def test_flag_list_matches_parser():
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"^Flags: (.*?)\n\n", text, re.M | re.S).group(1)
    listed = {flag for span in re.findall(r"`([^`]*)`", paragraph)
              for flag in re.findall(r"--[\w-]+", span)}
    parsed = {opt for command in build_parser().commands.values()
              for action in command._actions for opt in action.option_strings}
    assert listed == parsed - {"-h", "--help"}
