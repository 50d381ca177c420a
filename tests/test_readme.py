"""The README's configuration section against the code it describes."""

import json
import os
import re
from dataclasses import asdict

import genzsl.hallucination as hl
import genzsl.training as tr

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _section(title):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _key_paths(tree, prefix=""):
    """Dotted paths of every leaf key; the policy counts as one leaf, since
    the README gives it as a preset name."""
    paths = set()
    for key, value in tree.items():
        if isinstance(value, dict) and key != "policy":
            paths |= _key_paths(value, f"{prefix}{key}.")
        else:
            paths.add(f"{prefix}{key}")
    return paths


def test_config_block_is_the_default_config_key_for_key():
    block = re.search(r"```json\n(.*?)```", _section("Configuration"), re.S).group(1)
    data = json.loads(block)
    assert tr.config_from_dict(data) == tr.TrainConfig()
    assert _key_paths(data) == _key_paths(asdict(tr.TrainConfig()))


def test_policy_preset_list_names_every_preset():
    listed = re.search(r"`policy` accepts a preset name \(([^)]*)\)",
                       _section("Configuration")).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(hl.PRESETS)
