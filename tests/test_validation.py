"""Every constructor and entry point refuses malformed input with its own exception and message."""

import re

import numpy as np
import pytest

from spacelike.experiment import Evolution, Scenario
from spacelike.intervention import Intervention, LocalIntervention, Outcome, apply, random_intervention
from spacelike.linalg import CMatrix, DimensionError
from spacelike.scenarios import eprb
from spacelike.spacetime import Event, linear_extensions

I2 = CMatrix.identity(2)
IDENTITY = Intervention(2, (Outcome("id", 2, (I2,)),))


def unknown_history_station():
    s = eprb(0.0, 1.0)
    evolution = Evolution("A", "B", CMatrix.identity(4), history={"Q": "+"})
    return Scenario(dims0=s.dims0, rho0=s.rho0, stations=s.stations, evolutions=(evolution,))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Outcome("a", 2, ()), ValueError, "outcome 'a' has no Kraus matrices"),
        (lambda: Outcome("a", 0, (I2,)), ValueError, "outcome 'a': d_out must be positive"),
        (lambda: Intervention(0, (Outcome("a", 2, (I2,)),)), ValueError, "d_in must be positive"),
        (lambda: Intervention(2, ()), ValueError, "an intervention needs at least one outcome"),
        (lambda: LocalIntervention(-1, IDENTITY), ValueError, "subsystem index must be non-negative, got -1"),
        (lambda: apply(CMatrix(np.zeros((2, 3))), IDENTITY, "id"), DimensionError, "state must be square, got 2x3"),
        (lambda: random_intervention(0, [1], seed=0), ValueError, "d_in must be positive"),
        (
            lambda: Scenario(dims0=(2, 0), rho0=CMatrix(np.eye(2)), stations=()),
            ValueError,
            "subsystem dimensions must be positive, got (2, 0)",
        ),
        (unknown_history_station, ValueError, "evolution history references unknown station 'Q'"),
        (
            lambda: linear_extensions(set(), [Event("a", 0.0, 0.0), Event("a", 1.0, 5.0)]),
            ValueError,
            "event ids must be unique",
        ),
    ],
)
def test_malformed_input_is_refused_with_its_message(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error
