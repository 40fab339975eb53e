"""Unit tests for the named-system registry and machine construction."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, UnknownSystemError
from repro.params import (
    DEFAULT_INITIAL_THRESHOLD,
    NCIndexing,
    NCKind,
    RelocationCounters,
    ThresholdPolicy,
)
from repro.rdc.adaptive import AdaptiveThreshold, FixedThreshold
from repro.system.builder import (
    SYSTEM_NAMES,
    build_machine,
    parse_system_name,
    system_config,
)


class TestNameParsing:
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_all_registry_names_parse(self, name):
        prefix, frac = parse_system_name(name)
        assert prefix == name and frac is None

    def test_fraction_suffix(self):
        assert parse_system_name("ncp5") == ("ncp", 5)
        assert parse_system_name("vbp9") == ("vbp", 9)
        assert parse_system_name("vxp7") == ("vxp", 7)
        assert parse_system_name("p5") == ("p", 5)

    def test_case_insensitive(self):
        assert parse_system_name("NCD") == ("ncd", None)
        assert parse_system_name(" NCS ") == ("ncs", None)

    def test_unknown_name(self):
        with pytest.raises(UnknownSystemError):
            parse_system_name("bogus")

    def test_suffix_on_pc_less_system(self):
        with pytest.raises(ConfigurationError):
            parse_system_name("vb5")


class TestSystemConfigs:
    def test_base(self):
        cfg = system_config("base")
        assert cfg.nc.kind is NCKind.NONE and not cfg.pc.enabled

    def test_nc(self):
        cfg = system_config("nc")
        assert cfg.nc.kind is NCKind.DIRTY_INCLUSION
        assert cfg.nc.size == 16 * 1024 and cfg.nc.assoc == 4

    def test_vb_vp_indexing(self):
        assert system_config("vb").nc.indexing is NCIndexing.BLOCK
        assert system_config("vp").nc.indexing is NCIndexing.PAGE

    def test_ncs_dinf(self):
        assert system_config("ncs").nc.kind is NCKind.INFINITE_SRAM
        assert system_config("dinf").nc.kind is NCKind.INFINITE_DRAM

    def test_ncd_is_512k_dram(self):
        cfg = system_config("ncd")
        assert cfg.nc.kind is NCKind.DRAM_FULL_INCLUSION
        assert cfg.nc.size == 512 * 1024

    def test_pc_systems_default_512k(self):
        cfg = system_config("ncp")
        assert cfg.pc.enabled and cfg.pc.size_bytes == 512 * 1024

    def test_pc_fraction_suffix(self):
        cfg = system_config("vbp5")
        assert cfg.pc.fraction == pytest.approx(1 / 5)
        assert cfg.pc.size_bytes is None

    def test_vxp_uses_nc_set_counters(self):
        cfg = system_config("vxp5")
        assert cfg.pc.counters is RelocationCounters.NC_SET
        assert cfg.nc.indexing is NCIndexing.PAGE

    def test_directory_counters_for_others(self):
        for name in ("ncp5", "vbp5", "vpp5", "p5"):
            assert system_config(name).pc.counters is RelocationCounters.DIRECTORY

    def test_threshold_overrides(self):
        cfg = system_config(
            "ncp5",
            threshold_policy=ThresholdPolicy.FIXED,
            initial_threshold=16,
        )
        assert cfg.pc.threshold_policy is ThresholdPolicy.FIXED
        assert cfg.pc.initial_threshold == 16

    def test_default_threshold_is_scaled(self):
        assert system_config("ncp5").pc.initial_threshold == DEFAULT_INITIAL_THRESHOLD

    def test_cache_and_nc_overrides(self):
        cfg = system_config("vb", cache_assoc=4, nc_size=1024)
        assert cfg.cache.assoc == 4 and cfg.nc.size == 1024

    def test_machine_shape_overrides(self):
        cfg = system_config("base", n_nodes=2, procs_per_node=2)
        assert cfg.n_procs == 4


class TestBuildMachine:
    # the ids keep the names of the NC classes these kinds replaced, so
    # the test ids stay stable
    @pytest.mark.parametrize(
        "name,kind",
        [
            pytest.param("base", NCKind.NONE, id="base-NullNC"),
            pytest.param("nc", NCKind.DIRTY_INCLUSION, id="nc-DirtyInclusionNC"),
            pytest.param("vb", NCKind.VICTIM, id="vb-VictimNC"),
            pytest.param("vp", NCKind.VICTIM, id="vp-VictimNC"),
            pytest.param("ncs", NCKind.INFINITE_SRAM, id="ncs-InfiniteNC"),
            pytest.param("dinf", NCKind.INFINITE_DRAM, id="dinf-InfiniteNC"),
            pytest.param("ncd", NCKind.DRAM_FULL_INCLUSION, id="ncd-FullInclusionDramNC"),
        ],
    )
    def test_nc_instantiation(self, name, kind):
        m = build_machine(system_config(name))
        assert all(n.nc.kind is kind for n in m.nodes)

    def test_nodes_and_caches(self):
        m = build_machine(system_config("base"))
        assert len(m.nodes) == 8
        assert all(n.n_procs == 4 for n in m.nodes)

    def test_fresh_ncs_per_node(self):
        m = build_machine(system_config("vb"))
        assert m.nodes[0].nc is not m.nodes[1].nc

    def test_pc_sizing_from_fraction(self):
        m = build_machine(system_config("ncp5"), dataset_bytes=10 << 20)
        assert m.nodes[0].pc.capacity == (10 << 20) // 5 // 4096

    def test_pc_sizing_from_bytes(self):
        m = build_machine(system_config("ncp"), dataset_bytes=10 << 20)
        assert m.nodes[0].pc.capacity == 128

    def test_fraction_pc_requires_dataset(self):
        with pytest.raises(ConfigurationError):
            build_machine(system_config("ncp5"))

    def test_adaptive_threshold_window(self):
        m = build_machine(system_config("ncp"), dataset_bytes=10 << 20)
        t = m.nodes[0].threshold
        assert isinstance(t, AdaptiveThreshold)
        assert t.window == 2 * m.nodes[0].pc.capacity

    def test_fixed_threshold(self):
        cfg = system_config("ncp", threshold_policy=ThresholdPolicy.FIXED)
        m = build_machine(cfg, dataset_bytes=1 << 20)
        assert isinstance(m.nodes[0].threshold, FixedThreshold)

    def test_vxp_gets_nc_counters(self):
        m = build_machine(system_config("vxp5"), dataset_bytes=1 << 20)
        assert m.nodes[0].nc_counters is not None
        assert m.nodes[0].nc_counters.n_sets == 64
        assert m.dir_counters is None

    def test_directory_counter_systems(self):
        m = build_machine(system_config("ncp5"), dataset_bytes=1 << 20)
        assert m.dir_counters is not None
        assert m.nodes[0].nc_counters is None

    def test_no_pc_no_threshold(self):
        m = build_machine(system_config("vb"))
        assert m.nodes[0].pc is None and m.nodes[0].threshold is None
