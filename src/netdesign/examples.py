"""Access to the bundled example networks (edge-list fixture files)."""

from __future__ import annotations

from importlib import resources

from .network import Network, parse_network


def fixture_dir():
    """Traversable directory holding the bundled edge-list files."""
    return resources.files("netdesign") / "fixtures"


def example_names() -> list[str]:
    return sorted(p.name for p in fixture_dir().iterdir() if p.name.endswith(".txt"))


EXAMPLE_IDS = range(1, 7)


def check_example_id(k: int) -> None:
    """Raise ValueError unless k names a bundled example."""
    if k not in EXAMPLE_IDS:
        raise ValueError(f"no bundled example {k}: the examples are "
                         f"{EXAMPLE_IDS[0]}..{EXAMPLE_IDS[-1]}")


def example_network(k: int) -> Network:
    """Bundled example network k (1..6)."""
    check_example_id(k)
    path = fixture_dir() / f"example{k}.txt"
    return parse_network(path.read_text(encoding="utf-8"))
