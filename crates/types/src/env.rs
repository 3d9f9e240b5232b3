//! Typing environments.

use ioql_ast::{DefName, FnType, Type, VarName};
use ioql_schema::Schema;
use std::collections::BTreeMap;

/// Design-space options for the type system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct TypeOptions {
    /// Accept downcasts `(C) q` where `C` is a *subclass* of `q`'s static
    /// class. Paper Note 2: "this is an inherently unsafe operation, and
    /// leads to an insecure type system"; the default (`false`) is the
    /// paper's sound system. With `true`, the reducer treats a failed
    /// downcast as a stuck state — the workspace's failure-injection tests
    /// demonstrate exactly the unsoundness the paper warns about.
    pub allow_downcast: bool,
}

/// The combined typing environment `E; D; Q` of Figure 1:
///
/// * `E` — the schema (extent map, subtyping, member lookup),
/// * `D` — definition identifiers to their function types,
/// * `Q` — free identifiers (generator binders, definition parameters) to
///   their types.
#[derive(Clone, Debug)]
pub struct TypeEnv<'s> {
    /// The object schema (the paper's `E`, plus class information).
    pub schema: &'s Schema,
    /// `D`: definitions in scope.
    pub defs: BTreeMap<DefName, FnType>,
    /// `Q`: term variables in scope.
    pub vars: BTreeMap<VarName, Type>,
    /// Design-space options.
    pub options: TypeOptions,
}

impl<'s> TypeEnv<'s> {
    /// An environment with no definitions and no variables.
    pub fn new(schema: &'s Schema) -> Self {
        TypeEnv {
            schema,
            defs: BTreeMap::new(),
            vars: BTreeMap::new(),
            options: TypeOptions::default(),
        }
    }

    /// As [`TypeEnv::new`] with explicit options.
    pub fn with_options(schema: &'s Schema, options: TypeOptions) -> Self {
        TypeEnv {
            schema,
            defs: BTreeMap::new(),
            vars: BTreeMap::new(),
            options,
        }
    }

    /// Returns a copy with `x : σ` added to `Q` (the `(Comp2)` rule's
    /// environment extension).
    pub fn bind(&self, x: VarName, t: Type) -> Self {
        let mut vars = self.vars.clone();
        vars.insert(x, t);
        TypeEnv {
            schema: self.schema,
            defs: self.defs.clone(),
            vars,
            options: self.options,
        }
    }
}
