"""grmk: graded quotients of unit-filtered Milnor K-groups modulo p^n,
with an exact p-adic oracle on concrete local fields."""

from .ffield import (FqContext, KContext, LaurentPoly, ContextMismatch,
                     ExponentOverflow, ParseError, parse_element, format_element)
from .forms import (DiffForm, NotClosed, wedge, d, cartier, inv_cartier,
                    inv_cartier_iter, in_B, in_Z, is_closed,
                    subspace_basis, nf_mod, parse_form, format_form,
                    subsets_of, B_KIND, Z_KIND)
from .graded import (CDVFParams, GrDescriptor, GrElement, SymbolExpr,
                     descriptor, theta, one_plus_ac, reduce, is_zero,
                     graded_order, dim_values, symbol_to_forms, parse_symbol,
                     format_symbol, level_shift_consistency,
                     make_z_tower_element, CASE_I, CASE_II, CASE_III, PRIME,
                     OutOfRangeLevel, CoefficientNotIntegral, WindowOverflow,
                     MalformedSymbol, PreconditionViolated)
from .oracle import (EisensteinPoly, FieldContext, build_field,
                     filtered_unit_group, unit_group, same_orders, compare,
                     load_fixture, NotEisenstein, TooLarge, ParamsMismatch)

__version__ = "0.1.0"
