"""Relative entropy of measures against Haar references.

Measures live on finite atom spaces or bounded real intervals and are
given by densities over the base coordinate measure. The entropy of mu
against a reference nu is -integral (dmu/dnu) log(dmu/dnu) dnu in the
probability form, with finite-measure and weight-function forms that
agree with it after normalization. Built-in groups supply translation
structure and Haar references; the verifier module turns every identity
and inequality the library implements into seeded, reproducible checks.

The verifier module, and the names below that come from it, are imported
on first use, which keeps the import cost of its catalog off every other
command. haarent needs no package outside the standard library.
"""

import importlib

from .entropy import (EntropyForm, EntropyValue, NonnegativityCertificate,
                      NonUnitMassWarning, Verdict, change_reference,
                      entropic_gap, entropy_finite, entropy_prob,
                      entropy_weight, nonneg_certificate, uniform_measure)
from .errors import (AbsoluteContinuityError, CatalogError, ConvergenceError,
                     DegenerateMeasureError, DomainError, ExprEvalError,
                     ExprSyntaxError, HaarentError, NormalizationError,
                     NotInformationMeasureError, StepSizeError,
                     SumOverflowError, UnsupportedOperationError,
                     WindowOverflowError)
from .groups import (AdditiveReals, Circle, Cyclic, Dihedral, FiniteGroup,
                     Group, MultiplicativePositiveReals, Subgroup,
                     Symmetric, generated_subgroup,
                     group_from_descriptor, haar, subgroup_chains, subgroups,
                     translate_set, translation_samples)
from .maxent import (SimplexPoint, concavity_probe, entropy_of_weights,
                     maximize_entropy)
from .measures import (Density, MeasurableSet, Measure, Space, mass,
                       measure_of_weight, radon_nikodym, step_density,
                       table_density)
from .quadrature import (DEFAULT_INTEGRATOR, IntegralResult, Integrator,
                         integrate, integrate_result, xlogx)
from .report import (SCHEMA, VerificationReport, judge, reports_to_csv,
                     reports_to_json, reports_to_table)
from .supnorm import (SupNormalizationReport, check_translate_bound,
                      is_information_measure, sup_density, sup_normalize)

__version__ = "0.1.0"

# the verifier and the names it defines (PEP 562): imported on first use,
# which keeps the import cost of its catalog off entropy, supnorm and
# maxent. Nothing resolved is bound here, so each lookup sees the
# verifier's current binding (a wrapper put on verify, and its removal,
# included).
_LAZY = frozenset(("verifier", "ClaimSpec", "ClaimSummary", "RunSummary",
                   "catalog", "claim_ids", "run_all", "run_examples",
                   "summary_to_table", "verify"))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    verifier = importlib.import_module(f"{__name__}.verifier")
    return verifier if name == "verifier" else getattr(verifier, name)


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "AbsoluteContinuityError", "AdditiveReals", "CatalogError", "Circle",
    "ClaimSpec", "ClaimSummary", "ConvergenceError", "Cyclic",
    "DEFAULT_INTEGRATOR", "DegenerateMeasureError", "Density", "Dihedral",
    "DomainError", "EntropyForm", "EntropyValue", "ExprEvalError",
    "ExprSyntaxError", "FiniteGroup", "Group",
    "HaarentError", "IntegralResult", "Integrator", "MeasurableSet", "Measure",
    "MultiplicativePositiveReals", "NonUnitMassWarning",
    "NonnegativityCertificate", "NormalizationError",
    "NotInformationMeasureError", "RunSummary", "SCHEMA",
    "SimplexPoint", "Space", "StepSizeError", "Subgroup", "SumOverflowError",
    "SupNormalizationReport", "Symmetric", "UnsupportedOperationError",
    "Verdict", "VerificationReport", "WindowOverflowError",
    "catalog", "change_reference", "check_translate_bound", "claim_ids",
    "concavity_probe", "entropic_gap",
    "entropy_finite", "entropy_of_weights", "entropy_prob", "entropy_weight",
    "generated_subgroup", "group_from_descriptor", "haar", "integrate",
    "integrate_result", "is_information_measure", "judge", "mass",
    "maximize_entropy",
    "measure_of_weight", "nonneg_certificate", "radon_nikodym", "reports_to_csv",
    "reports_to_json", "reports_to_table", "run_all", "run_examples",
    "step_density", "sup_density", "sup_normalize",
    "subgroup_chains", "subgroups", "summary_to_table", "table_density",
    "translate_set", "translation_samples", "uniform_measure", "verify",
    "xlogx"]
