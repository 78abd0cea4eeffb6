"""SweepSpec expansion, override application and hashing."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.config import ScenarioConfig
from repro.sim.rng import derive_seed
from repro.sweep import SweepSpec, apply_overrides, point_label


def _base(**kwargs):
    return ScenarioConfig(workload="uniform", num_objects=50, **kwargs)


class TestApplyOverrides:
    def test_top_level_field(self):
        config = apply_overrides(_base(), {"node_request_rate": 10.0})
        assert config.node_request_rate == 10.0

    def test_nested_protocol_field(self):
        config = apply_overrides(_base(), {"protocol.placement_interval": 50.0})
        assert config.protocol.placement_interval == 50.0
        # Untouched protocol fields survive.
        assert config.protocol.high_watermark == _base().protocol.high_watermark

    def test_paired_nested_fields_apply_together(self):
        # Watermarks must be set atomically (lw < hw is validated).
        config = apply_overrides(
            _base(),
            {"protocol.high_watermark": 50.0, "protocol.low_watermark": 40.0},
        )
        assert (config.protocol.high_watermark, config.protocol.low_watermark) == (
            50.0,
            40.0,
        )

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown override key"):
            apply_overrides(_base(), {"not_a_field": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown override key"):
            apply_overrides(_base(), {"protocol.nope": 1})

    def test_dotted_into_scalar_rejected(self):
        with pytest.raises(ConfigurationError, match="non-dataclass"):
            apply_overrides(_base(), {"duration.x": 1})

    def test_invalid_value_still_validated(self):
        with pytest.raises(ConfigurationError):
            apply_overrides(_base(), {"duration": -1.0})

    def test_consistency_knobs_sweepable(self):
        # The --write-rate / --category-mix experiment axes: dotted keys
        # into the consistency block, mix in its colon-string form
        # (sweep --set values split on commas).
        config = apply_overrides(
            _base(),
            {
                "consistency.write_rate": 2.0,
                "consistency.category_mix": "0.8:0.1:0.1",
                "consistency.anti_entropy_interval": 10.0,
            },
        )
        assert config.consistency.write_rate == 2.0
        assert config.consistency.category_mix == (0.8, 0.1, 0.1)
        assert config.consistency.anti_entropy_interval == 10.0
        assert config.consistency.enabled
        with pytest.raises(ConfigurationError):
            apply_overrides(_base(), {"consistency.category_mix": "0.5:0.5"})


class TestExpansion:
    def test_default_is_single_run_with_base_seed(self):
        spec = SweepSpec(base=_base(seed=9))
        runs = spec.runs()
        assert len(runs) == 1
        assert runs[0].seed == 9
        assert runs[0].point == "base"
        assert runs[0].config == _base(seed=9)

    def test_grid_is_point_major_cartesian(self):
        spec = SweepSpec.grid(
            _base(),
            {
                "protocol.placement_interval": [50.0, 100.0],
                "node_request_rate": [10.0],
            },
            seeds=(1, 2),
        )
        runs = spec.runs()
        assert len(runs) == 4
        assert [run.index for run in runs] == [0, 1, 2, 3]
        # Point-major: both seeds of the first point precede the second.
        assert [run.seed for run in runs] == [1, 2, 1, 2]
        assert runs[0].config.protocol.placement_interval == 50.0
        assert runs[2].config.protocol.placement_interval == 100.0
        assert all(run.config.node_request_rate == 10.0 for run in runs)

    def test_empty_axis_means_zero_runs(self):
        spec = SweepSpec.grid(_base(), {"protocol.placement_interval": []})
        assert spec.runs() == ()

    def test_derived_seeds_use_rng_derivation(self):
        spec = SweepSpec(base=_base(), num_seeds=3, root_seed=42)
        assert spec.resolved_seeds() == tuple(derive_seed(42, i) for i in range(3))
        # And they land on the run configs.
        assert [run.config.seed for run in spec.runs()] == list(spec.resolved_seeds())

    def test_explicit_seeds_and_num_seeds_conflict(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(base=_base(), seeds=(1,), num_seeds=2)

    def test_labels(self):
        assert point_label({}) == "base"
        assert (
            point_label({"protocol.placement_interval": 50.0, "seed": 1})
            == "placement_interval=50.0,seed=1"
        )
        run = SweepSpec.grid(
            _base(), {"protocol.placement_interval": [50.0]}, seeds=(3,)
        ).runs()[0]
        assert run.label == "placement_interval=50.0/seed=3"


class TestSpecHash:
    def test_stable_for_equal_specs(self):
        a = SweepSpec.grid(_base(), {"node_request_rate": [10.0]}, seeds=(1,))
        b = SweepSpec.grid(_base(), {"node_request_rate": [10.0]}, seeds=(1,))
        assert a.spec_hash() == b.spec_hash()

    def test_changes_with_grid_seeds_or_base(self):
        spec = SweepSpec.grid(_base(), {"node_request_rate": [10.0]}, seeds=(1,))
        assert (
            spec.spec_hash()
            != SweepSpec.grid(
                _base(), {"node_request_rate": [11.0]}, seeds=(1,)
            ).spec_hash()
        )
        assert (
            spec.spec_hash()
            != SweepSpec.grid(
                _base(), {"node_request_rate": [10.0]}, seeds=(2,)
            ).spec_hash()
        )
        assert (
            spec.spec_hash()
            != SweepSpec.grid(
                _base(duration=100.0), {"node_request_rate": [10.0]}, seeds=(1,)
            ).spec_hash()
        )

    def test_smoke_spec_hash_pinned(self):
        # The committed baseline's key.  Changing what the smoke sweep
        # runs (including any config-schema change that leaks into the
        # hash) invalidates benchmarks/reports/baseline.json — this
        # regression makes that a deliberate act, not an accident.
        from repro.sweep.smoke import smoke_spec

        assert smoke_spec().spec_hash() == "e3b8c32c33cb0b3a"

    def test_default_consistency_and_empty_partitions_do_not_shift_hash(self):
        # The consistency block at all-off defaults and an empty
        # partition schedule describe exactly the runs that existed
        # before those fields did; both are dropped from the hash.
        from repro.consistency.config import ConsistencyConfig

        spec = SweepSpec(base=_base())
        explicit = SweepSpec(
            base=_base(
                consistency=ConsistencyConfig(),
                faults=_base().faults.replace(partitions=()),
            )
        )
        assert spec.spec_hash() == explicit.spec_hash()
        active = SweepSpec(
            base=_base(consistency=ConsistencyConfig(write_rate=1.0))
        )
        assert active.spec_hash() != spec.spec_hash()
        partitioned = SweepSpec(
            base=_base(
                faults=_base().faults.replace(
                    enabled=True, partitions=(((0, 1), 10.0, 5.0),)
                )
            )
        )
        assert partitioned.spec_hash() != spec.spec_hash()


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(7, 0) != derive_seed(8, 0)
        # Never reuses the root verbatim: run 0 differs from seed=root.
        assert derive_seed(7, 0) != 7

    def test_pinned_values(self):
        # Cross-platform / cross-version stability contract: these exact
        # values are what any worker anywhere derives for a given
        # (root, index), so a sweep's seed assignment can never drift.
        assert derive_seed(0, 0) == 12347569217287482404
        assert derive_seed(0, 1) == 4667777189487873042
        assert derive_seed(42, 3) == 17644831830268502045

    def test_negative_index_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            derive_seed(0, -1)
