"""README figures that restate the code, checked against it so that a
format or network change cannot leave the README stale."""
import re
from pathlib import Path

import pytest

from linr import pipeline
from linr.network import ModelConfig, OccupancyModel

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def readme() -> str:
    # Line breaks fall anywhere in a wrapped paragraph.
    return " ".join(README.read_text(encoding="utf-8").split())


def test_bitstream_section_states_current_version(readme):
    section = readme.split("## Bitstream format", 1)[1]
    stated = re.search(r"version u8 \((\d+)\)", section)
    assert stated, "bitstream section gives no version"
    assert int(stated.group(1)) == pipeline.VERSION


def test_parameter_count_matches_network(readme):
    stated = re.search(r"\(([\d,]+) shared parameters plus (\d+) per scale, "
                       r"([\d,]+) at five scales\)", readme)
    assert stated, "README gives no parameter count"
    shared, per_scale, at_five = (int(v.replace(",", "")) for v in stated.groups())
    for n in range(9):
        count = OccupancyModel(ModelConfig(n)).num_parameters()
        assert count == shared + per_scale * n, n
    assert at_five == shared + per_scale * 5
