"""Exact conjugacy-class product computations for determinant-one 2x2
matrix groups over small finite fields."""

__version__ = "0.1.0"

from .classes import (
    ClassEntry,
    ClassLabel,
    ClassTable,
    class_table,
    classify,
)
from .checks import ALL_CHECKS, CheckResult, applicable_checks, run_checks
from .field import Field, make_field
from .matrices import Mat2, det, enumerate_sl2, from_literal, mat, sl2_order
from .products import (
    ProductReport,
    class_product_labels,
    min_product_classes,
    product_report,
)

__all__ = [
    "ALL_CHECKS", "CheckResult", "ClassEntry", "ClassLabel", "ClassTable",
    "Field", "Mat2", "ProductReport", "applicable_checks", "class_product_labels",
    "class_table", "classify", "det", "enumerate_sl2", "from_literal",
    "make_field", "mat", "min_product_classes", "product_report", "run_checks",
    "sl2_order",
]
