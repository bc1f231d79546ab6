"""Full-scale structural regression (opt-in: REPRO_FULL=1).

Pins the full-scale numbers EXPERIMENTS.md quotes against the paper, so
a future change to the table generator or the builders that silently
drifts them gets caught.  It also checks that a full-scale RIB keeps
its radix nodes in columns, not objects.  Skipped by default —
generating the 531k-route table and compiling every structure takes
~2 minutes.

Run with:  REPRO_FULL=1 pytest tests/test_fullscale_regression.py
"""

import os

import pytest

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_FULL") != "1",
    reason="full-scale regression is opt-in (REPRO_FULL=1)",
)


@pytest.fixture(scope="module")
def full_dataset():
    from repro.data.datasets import load_dataset

    return load_dataset("REAL-Tier1-A", scale=1.0)


def test_published_table_size(full_dataset):
    assert len(full_dataset) == 531489  # exact: the generator hits spec


def test_poptrie18_structural_numbers(full_dataset):
    from repro.core.aggregate import aggregated_rib
    from repro.core.poptrie import Poptrie, PoptrieConfig

    trie = Poptrie.from_rib(
        aggregated_rib(full_dataset.rib),
        PoptrieConfig(s=18),
        fib_size=len(full_dataset.fib) + 1,
    )
    # Paper: 40,760 inodes / 245,034 leaves / 2.40 MiB.  Pin our measured
    # band (±20 % around the recorded values, well inside paper-comparable).
    assert 27_000 < trie.inode_count < 45_000
    assert 180_000 < trie.leaf_count < 280_000
    assert 1.8 < trie.memory_mib() < 2.8


def test_dxr_and_sail_structural_numbers(full_dataset):
    from repro.lookup.dxr import Dxr
    from repro.lookup.sail import Sail

    d18r = Dxr.from_rib(full_dataset.rib, s=18)
    # Paper: 1.91 MiB, ~230k ranges.
    assert 180_000 < len(d18r.starts) < 300_000
    assert 1.5 < d18r.memory_mib() < 2.4

    sail = Sail.from_rib(full_dataset.rib)  # must compile (< 2^15 chunks)
    assert sail.memory_mib() > 8.0  # exceeds the L3, the paper's key fact


def test_syn2_breaks_sail(full_dataset):
    from repro.data.expand import expand_syn2
    from repro.errors import StructuralLimitError
    from repro.lookup.sail import Sail

    syn2 = expand_syn2(full_dataset.rib)
    with pytest.raises(StructuralLimitError):
        Sail.from_rib(syn2)


def test_p46_rib_holds_no_per_node_objects(tmp_path):
    """The RV-linx-p46 table (518k routes, ~1.47M radix nodes) loads from
    its image into the RIB's node columns, not one object per node."""
    import gc

    from repro.data import tableio
    from repro.data.datasets import load_dataset

    path = str(tmp_path / "p46.img")
    tableio.save_table_image(load_dataset("RV-linx-p46", scale=1.0).rib, path)
    gc.collect()
    before = len(gc.get_objects())
    rib = tableio.load_table(path)
    gc.collect()
    assert len(rib) == 518231
    assert rib.node_count > 1_000_000
    assert len(gc.get_objects()) - before < 1_000


@pytest.mark.parametrize("s", (0, 16, 18))
def test_compile_is_byte_identical_to_the_scalar_oracle(full_dataset, s):
    """``Poptrie.from_rib`` (the numpy compile) against ``build_scalar``
    on the 531k-route table: the same arrays, allocator states, counts
    and memory map, by digest."""
    from repro.bench.build import trie_digest
    from repro.core.poptrie import Poptrie, PoptrieConfig, build_scalar

    config = PoptrieConfig(s=s)
    compiled = trie_digest(Poptrie.from_rib(full_dataset.rib, config))
    assert compiled == trie_digest(build_scalar(full_dataset.rib, config))
