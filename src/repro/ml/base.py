"""Estimator base classes and parameter handling.

A small re-implementation of scikit-learn's estimator protocol:
``get_params``/``set_params`` driven by the constructor signature,
and a ``ClassifierMixin`` that provides ``score``.  Every estimator in
the package builds on these, and the model artifact records a fitted
classifier's ``get_params``.
"""

from __future__ import annotations

import inspect
from typing import Any

from ..exceptions import NotFittedError, ValidationError

__all__ = ["BaseEstimator", "ClassifierMixin", "check_is_fitted"]


class BaseEstimator:
    """Base class providing parameter introspection.

    Subclasses must accept all hyper-parameters as keyword arguments in
    ``__init__`` and store them under the same attribute names (the
    scikit-learn convention); fitted state uses a trailing underscore.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        names = [
            name for name, param in signature.parameters.items()
            if name != "self" and param.kind not in (
                inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        ]
        return sorted(names)

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        """Return the estimator's hyper-parameters as a dict."""

        params: dict[str, Any] = {}
        for name in self._param_names():
            value = getattr(self, name)
            params[name] = value
            if deep and isinstance(value, BaseEstimator):
                for sub_name, sub_value in value.get_params(deep=True).items():
                    params[f"{name}__{sub_name}"] = sub_value
        return params

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set hyper-parameters (supports ``nested__param`` syntax)."""

        if not params:
            return self
        valid = set(self._param_names())
        nested: dict[str, dict[str, Any]] = {}
        for key, value in params.items():
            if "__" in key:
                prefix, _, suffix = key.partition("__")
                nested.setdefault(prefix, {})[suffix] = value
                continue
            if key not in valid:
                raise ValidationError(
                    f"Invalid parameter {key!r} for estimator {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, key, value)
        for prefix, sub_params in nested.items():
            if prefix not in valid:
                raise ValidationError(
                    f"Invalid parameter {prefix!r} for estimator {type(self).__name__}"
                )
            sub_estimator = getattr(self, prefix)
            if not isinstance(sub_estimator, BaseEstimator):
                raise ValidationError(
                    f"Parameter {prefix!r} is not an estimator; cannot set nested params"
                )
            sub_estimator.set_params(**sub_params)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params(deep=False).items())
        return f"{type(self).__name__}({params})"


class ClassifierMixin:
    """Adds ``score`` (mean accuracy) to classifiers."""

    def score(self, X, y) -> float:
        from .metrics import accuracy_score

        return accuracy_score(y, self.predict(X))


def check_is_fitted(estimator: Any, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``attribute`` exists."""

    if not hasattr(estimator, attribute) or getattr(estimator, attribute) is None:
        raise NotFittedError(
            f"This {type(estimator).__name__} instance is not fitted yet; "
            f"call 'fit' before using this method."
        )
