"""Finite dimonoids, doppelsemigroups, and semigroups up to isomorphism.

A dimonoid is a set with two associative operations -| and |- satisfying

    (x -| y) -| z = x -| (y |- z)
    (x |- y) -| z = x |- (y -| z)
    (x -| y) |- z = x |- (y |- z)

and a doppelsemigroup replaces the first and third axiom with

    (x -| y) |- z = x -| (y |- z).

The package builds the standard small families by name, checks axioms,
decides isomorphism through canonical forms, enumerates all classes of
orders 1..5, and renders classification reports with display names and
automorphism groups.
"""
from .tables import (DiStructure, OpTable, OrderMismatchError, Permutation,
                     TableFormatError, apply_permutation, format_distructure,
                     format_table, parse_structure, parse_table)
from .axioms import (AxiomVerdict, DIMONOID, DOPPELSEMIGROUP, DimonoidProfile,
                     NotAssociativeError, SemigroupProfile, check_structure,
                     dimonoid_profile, is_associative, semigroup_profile)
from .catalog import (ParameterError, adjoin_identity, adjoin_tilde1,
                      adjoin_zero, adjoin_zero_dimonoid, build_semigroup,
                      build_structure, cyclic, idempotent_diagonal, left_zero,
                      left_zero_band, left_zero_collapse, linear_semilattice,
                      masked_left_zero, monogenic, named_class_map,
                      named_semigroups, named_structures, null_semigroup,
                      right_zero, semigroup_dual_name, shifted_cyclic,
                      structure_dual_name, trivial_dimonoid)
from .iso import (CanonicalKey, GroupId, are_isomorphic, automorphisms,
                  canonical_form, identify_group)
from .enumeration import (EnumerationResult, SEMIGROUP,
                          enumerate_associative_tables, enumerate_dimonoids,
                          enumerate_doppelsemigroups, enumerate_semigroups,
                          enumerate_structures)
from .classify import (ClassRow, ClassificationReport, classify,
                       classify_order, render_report, solve_problem1)

__version__ = "0.1.0"
