"""The paper's kernels mapped onto the reconfigurable array.

Each module builds an XPP configuration reproducing one figure of the
paper and provides a runner that streams samples through the simulated
array:

* :mod:`repro.kernels.descrambler` — Fig. 5: 2-bit scrambling code ->
  +-1+-j multiplexer feeding a complex multiplier.
* :mod:`repro.kernels.despreader` — Fig. 6: complex multiply-accumulate
  over the spreading factor with a time-multiplexed accumulator ring,
  counters and comparators for the symbol-boundary shift-out.
* :mod:`repro.kernels.channel_correction` — Fig. 7: weight FIFOs, STTD
  decoding and channel weighting of time-multiplexed finger streams.
* :mod:`repro.kernels.fft64` — Fig. 9: the radix-4 FFT64 with twiddle
  and address lookup FIFOs, a dual-ported data RAM and per-stage
  scaling, iterated three times over the same hardware.
* :mod:`repro.kernels.combining` — the rake combining stage.
* :mod:`repro.kernels.complex_macros` — scalar-ALU expansion of the
  complex arithmetic (the resource-cost ablation against the packed
  complex ALUs).
"""

import importlib

#: Public name -> the submodule defining it.  Names load on first
#: access (PEP 562), so a process that runs one kernel — a campaign
#: worker running descrambler chaos shards — does not import the
#: others, nor the pnr compiler and OFDM chain they pull in.
_EXPORTS = {
    "DescramblerKernel": "descrambler",
    "build_descrambler_config": "descrambler",
    "descrambler_golden": "descrambler",
    "DespreaderKernel": "despreader",
    "build_despreader_config": "despreader",
    "despreader_golden": "despreader",
    "ChannelCorrectionKernel": "channel_correction",
    "build_channel_correction_config": "channel_correction",
    "channel_correction_golden": "channel_correction",
    "CombinerKernel": "combining",
    "combiner_golden": "combining",
    "build_descrambler_config_dsl": "dsl",
    "build_despreader_config_dsl": "dsl",
    "descrambler_graph": "dsl",
    "despreader_graph": "dsl",
    "Fft64Kernel": "fft64",
    "build_fft_stage_config": "fft64",
    "scalar_cmul_config": "complex_macros",
    "InterleaverKernel": "interleaver_map",
    "build_interleaver_config": "interleaver_map",
    "RakeChainKernel": "rake_chain",
    "build_rake_chain_config": "rake_chain",
    "rake_chain_golden": "rake_chain",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
