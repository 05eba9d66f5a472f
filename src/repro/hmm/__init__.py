"""HMMs and inference: the Markovian-stream generation pipeline (Fig 1).

- :class:`HiddenMarkovModel`, :class:`TabularEmission` — model definition;
- :func:`smooth` — exact forward-backward smoothing (default generator);
- :func:`viterbi` — MAP decoding for sanity checks.
"""

from .forward_backward import smooth
from .model import EmissionModel, HiddenMarkovModel, TabularEmission
from .viterbi import viterbi

__all__ = [
    "EmissionModel",
    "HiddenMarkovModel",
    "TabularEmission",
    "smooth",
    "viterbi",
]
