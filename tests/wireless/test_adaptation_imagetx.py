"""Tests for transceiver adaptation (E6) and image transmission (E7)."""

import pytest

from repro.wireless import (
    BPSK,
    CODE_LADDER,
    FiniteStateChannel,
    ImageCoderModel,
    LinkConfig,
    QAM64,
    TransceiverParams,
    UNCODED,
    config_space,
    evaluate_adaptation,
    evaluate_image_transmission,
    link_energy,
    optimize_for_state,
    total_distortion,
)


class TestLinkEnergy:
    @pytest.fixture
    def setup(self):
        return FiniteStateChannel.indoor_default(), TransceiverParams()

    def test_airtime_scales_with_modulation(self, setup):
        __, params = setup
        slow = LinkConfig(BPSK, UNCODED).airtime(1e6, params)
        fast = LinkConfig(QAM64, UNCODED).airtime(1e6, params)
        assert slow == pytest.approx(6 * fast)

    def test_coding_doubles_airtime_at_half_rate(self, setup):
        __, params = setup
        uncoded = LinkConfig(BPSK, UNCODED).airtime(1e6, params)
        coded = LinkConfig(BPSK, CODE_LADDER[1]).airtime(1e6, params)
        assert coded == pytest.approx(2 * uncoded)

    def test_energy_grows_in_deep_fade(self, setup):
        channel, params = setup
        config = LinkConfig(BPSK, UNCODED)
        los = link_energy(config, 1e6, channel, channel.states[0],
                          params)
        fade = link_energy(config, 1e6, channel, channel.states[-1],
                           params)
        assert fade > los

    def test_coding_gain_cuts_required_snr(self, setup):
        uncoded = LinkConfig(BPSK, UNCODED).required_snr(1e-5)
        coded = LinkConfig(BPSK, CODE_LADDER[3]).required_snr(1e-5)
        assert coded < uncoded / 2

    def test_validation(self, setup):
        channel, params = setup
        with pytest.raises(ValueError):
            LinkConfig(BPSK, UNCODED).airtime(-1.0, params)
        with pytest.raises(ValueError):
            TransceiverParams(symbol_rate=0.0)
        with pytest.raises(ValueError):
            TransceiverParams(amplifier_efficiency=1.5)


class TestAdaptation:
    @pytest.fixture(scope="class")
    def result(self):
        return evaluate_adaptation()

    def test_config_space_size(self):
        assert len(config_space()) == 4 * 5

    def test_e6_reduction_around_12_percent(self, result):
        """The [26] claim: ~12% average transceiver energy saving."""
        assert 0.05 <= result.energy_reduction <= 0.25

    def test_dynamic_never_worse_per_state(self, result):
        for name in result.per_state_static:
            assert result.per_state_dynamic[name] <= \
                result.per_state_static[name] + 1e-12

    def test_policy_actually_adapts(self, result):
        assert result.adapts

    def test_good_state_uses_denser_modulation(self, result):
        los = result.dynamic_configs["los"]
        fade = result.dynamic_configs["deep_fade"]
        assert los.modulation.bits_per_symbol > \
            fade.modulation.bits_per_symbol

    def test_fade_state_uses_stronger_code(self, result):
        los = result.dynamic_configs["los"]
        fade = result.dynamic_configs["deep_fade"]
        assert fade.code.constraint_length >= los.code.constraint_length

    def test_no_performance_penalty(self, result):
        """Both policies meet the same BER target by construction; the
        dynamic one must not cost energy anywhere."""
        assert result.dynamic_energy <= result.static_energy


class TestImageCoder:
    def test_source_distortion_halves_per_bit(self):
        coder = ImageCoderModel()
        d1 = coder.source_distortion(1.0)
        d2 = coder.source_distortion(2.0)
        assert d1 / d2 == pytest.approx(4.0)

    def test_psnr_roundtrip(self):
        coder = ImageCoderModel()
        mse = coder.mse_for_psnr(32.0)
        assert coder.psnr(mse) == pytest.approx(32.0)

    def test_channel_distortion_linear_in_ber(self):
        coder = ImageCoderModel()
        assert coder.channel_distortion(2e-4) == pytest.approx(
            2 * coder.channel_distortion(1e-4)
        )

    def test_computation_energy_grows_with_bpp(self):
        coder = ImageCoderModel()
        assert coder.computation_energy(2.0) > coder.computation_energy(
            1.0
        )

    def test_validation(self):
        coder = ImageCoderModel()
        with pytest.raises(ValueError):
            coder.source_distortion(0.0)
        with pytest.raises(ValueError):
            coder.channel_distortion(2.0)
        with pytest.raises(ValueError):
            ImageCoderModel(n_pixels=0)


class TestImageTransmission:
    @pytest.fixture(scope="class")
    def result(self):
        return evaluate_image_transmission()

    def test_e7_saving_around_60_percent(self, result):
        """The [27] claim: ~60% average energy saving."""
        assert 0.45 <= result.energy_saving <= 0.75

    def test_all_states_meet_psnr(self, result):
        coder = ImageCoderModel()
        d_max = coder.mse_for_psnr(32.0)
        for config in result.adaptive_configs.values():
            assert total_distortion(config, coder) <= d_max + 1e-9
        assert total_distortion(result.baseline_config, coder) <= \
            d_max + 1e-9

    def test_adaptive_cheaper_everywhere(self, result):
        for name in result.per_state_adaptive:
            assert result.per_state_adaptive[name] <= \
                result.per_state_baseline[name] + 1e-12

    def test_deep_fade_uses_channel_coding(self, result):
        """JSCC signature: coding appears when the channel is bad."""
        fade = result.adaptive_configs["deep_fade"]
        los = result.adaptive_configs["los"]
        assert fade.code.constraint_length > los.code.constraint_length

    def test_optimize_for_state_respects_distortion(self):
        channel = FiniteStateChannel.indoor_default(distance=20.0)
        params = TransceiverParams()
        coder = ImageCoderModel()
        config, energy = optimize_for_state(
            channel.states[0], channel, params, coder, psnr_target=35.0
        )
        assert total_distortion(config, coder) <= \
            coder.mse_for_psnr(35.0)
        assert energy > 0

    def test_higher_psnr_costs_more(self):
        channel = FiniteStateChannel.indoor_default(distance=20.0)
        params = TransceiverParams()
        coder = ImageCoderModel()
        state = channel.states[1]
        __, cheap = optimize_for_state(state, channel, params, coder,
                                       psnr_target=30.0)
        __, pricey = optimize_for_state(state, channel, params, coder,
                                        psnr_target=38.0)
        assert pricey > cheap
