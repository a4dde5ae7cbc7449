"""Tests for the analog crossbar MVM model."""

import numpy as np
import pytest

from repro.imc.crossbar import CrossbarArray, CrossbarConfig


def _ideal_config(rows=16, cols=8):
    return CrossbarConfig(
        rows=rows, cols=cols, dac_bits=0, adc_bits=0, conductance_sigma=0.0
    )


class TestConfig:
    def test_invalid_conductance_range_rejected(self):
        with pytest.raises(ValueError):
            CrossbarConfig(g_min_us=5.0, g_max_us=1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            CrossbarConfig(conductance_sigma=-0.1)

    def test_paper_tile_dimensions(self):
        config = CrossbarConfig()
        assert (config.rows, config.cols) == (256, 128)


class TestIdealOperation:
    def test_matvec_exact_without_noise_or_quantisation(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(0.0, 1.0, size=(16, 8))
        inputs = rng.normal(0.0, 1.0, size=16)
        tile = CrossbarArray(_ideal_config())
        tile.program(weights)
        np.testing.assert_allclose(tile.matvec(inputs), inputs @ weights, rtol=1e-10)

    def test_zero_weights_zero_output(self):
        tile = CrossbarArray(_ideal_config())
        tile.program(np.zeros((16, 8)))
        assert np.allclose(tile.matvec(np.ones(16)), 0.0)

    def test_matvec_before_program_rejected(self):
        with pytest.raises(RuntimeError):
            CrossbarArray(_ideal_config()).matvec(np.ones(16))

    def test_wrong_weight_shape_rejected(self):
        with pytest.raises(ValueError):
            CrossbarArray(_ideal_config()).program(np.zeros((4, 4)))

    def test_wrong_input_shape_rejected(self):
        tile = CrossbarArray(_ideal_config())
        tile.program(np.zeros((16, 8)))
        with pytest.raises(ValueError):
            tile.matvec(np.ones(5))

    def test_subnormal_range_quantises_without_nan(self):
        """A range so small its ADC step underflows to zero passes through
        instead of dividing by zero into NaN."""
        config = CrossbarConfig(rows=8, cols=4, dac_bits=0, adc_bits=8)
        tile = CrossbarArray(config)
        tile.program(np.ones((8, 4)))
        outputs = tile.matvec(np.full(8, 5e-324))
        assert np.isfinite(outputs).all()
        np.testing.assert_allclose(outputs, np.full(4, 4e-323), atol=1e-12)


class TestNonIdealities:
    def test_adc_quantisation_bounds_error(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(0.0, 1.0, size=(16, 8))
        inputs = rng.normal(0.0, 1.0, size=16)
        exact = inputs @ weights
        config = CrossbarConfig(rows=16, cols=8, dac_bits=0, adc_bits=8)
        tile = CrossbarArray(config)
        tile.program(weights)
        outputs = tile.matvec(inputs)
        step = np.abs(exact).max() / 127.0
        assert np.abs(outputs - exact).max() <= step

    def test_lower_adc_resolution_increases_error(self):
        rng = np.random.default_rng(2)
        weights = rng.normal(0.0, 1.0, size=(32, 8))
        inputs = rng.normal(0.0, 1.0, size=32)
        exact = inputs @ weights
        errors = {}
        for bits in (4, 8):
            config = CrossbarConfig(rows=32, cols=8, dac_bits=0, adc_bits=bits)
            tile = CrossbarArray(config)
            tile.program(weights)
            errors[bits] = np.abs(tile.matvec(inputs) - exact).mean()
        assert errors[4] > errors[8]

    def test_conductance_noise_perturbs_output(self):
        rng = np.random.default_rng(3)
        weights = rng.normal(0.0, 1.0, size=(16, 8))
        inputs = rng.normal(0.0, 1.0, size=16)
        noisy_config = CrossbarConfig(
            rows=16, cols=8, dac_bits=0, adc_bits=0, conductance_sigma=0.05
        )
        tile = CrossbarArray(noisy_config, rng=np.random.default_rng(9))
        tile.program(weights)
        outputs = tile.matvec(inputs)
        exact = inputs @ weights
        assert not np.allclose(outputs, exact)
        # ... but remains correlated with the true product.
        correlation = np.corrcoef(outputs, exact)[0, 1]
        assert correlation > 0.95

    def test_noise_applied_at_program_time_is_deterministic_per_seed(self):
        weights = np.eye(16, 8)
        config = CrossbarConfig(rows=16, cols=8, dac_bits=0, adc_bits=0, conductance_sigma=0.1)
        tile_a = CrossbarArray(config, rng=np.random.default_rng(5))
        tile_b = CrossbarArray(config, rng=np.random.default_rng(5))
        tile_a.program(weights)
        tile_b.program(weights)
        inputs = np.ones(16)
        np.testing.assert_allclose(tile_a.matvec(inputs), tile_b.matvec(inputs))
