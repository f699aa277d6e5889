"""mezofit: memory models, budget solving, and desk-scale training validation
for zeroth-order (MeZO) vs. backprop fine-tuning of decoder-only transformers."""

from mezofit.memory import (
    ConfigError,
    InfeasibleError,
    MemoryBreakdown,
    MemoryMode,
    ModelConfig,
    SweepAxis,
    activation_bytes,
    max_dimension,
    memory_for_mode,
    param_elements,
    sweep,
)

__version__ = "0.1.0"
