"""Exception types shared across the solver library."""


class SingularImpactError(ValueError):
    """An interference-plus-noise value was at or below the singularity guard."""


class InvalidSpecError(ValueError):
    """A game description violates a structural invariant."""


class DegenerateModelError(ValueError):
    """The utility model admits no interior optimum for the requested operation."""


class InapplicableFormulaError(ValueError):
    """A closed form was requested at a point where its assumptions fail."""


class IterationLimitError(RuntimeError):
    """A fixed-point or ascent loop hit its iteration cap.

    Carries the last iterate and the residual at that iterate so callers can
    inspect how close the loop got.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class CombinatorialLimitError(ValueError):
    """An exhaustive check was requested beyond its tractable size."""


class InfeasibleScenarioError(RuntimeError):
    """Rejection sampling for a scenario filter exceeded its draw budget."""


class ConfigError(ValueError):
    """An experiment configuration document is malformed."""


class SchemaVersionError(ValueError):
    """A persisted results file carries an unsupported schema version."""


# what a solver raises on purpose for an instance it cannot handle; pipelines
# exclude such an instance and let any other exception propagate as a bug
SOLVER_ERRORS = (IterationLimitError, SingularImpactError, DegenerateModelError,
                 InapplicableFormulaError)
