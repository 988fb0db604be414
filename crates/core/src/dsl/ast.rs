//! Abstract syntax of the condition language (Figure 1 of the paper).
//!
//! A program is four conditions `(B₁, B₂, B₃, B₄)`. Each condition compares
//! a function of the black-box-observable state to a real constant:
//!
//! ```text
//! B ::= F > r | F < r
//! F ::= max(x_l) | min(x_l) | avg(x_l)
//!     | score_diff(N(x), N(x[l←p]), c_x)
//!     | center(l)
//! ```
//!
//! The `Const` variant is *not* part of the synthesis grammar — it exists
//! for the paper's Sketch+False ablation baseline (Appendix C) and for the
//! trivially-true/false edges of the search space.

use std::fmt;

/// Statistic of the original image's pixel at the popped location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PixelStat {
    /// Maximum RGB channel.
    Max,
    /// Minimum RGB channel.
    Min,
    /// Mean of the RGB channels.
    Avg,
}

/// The function `F` of a condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Func {
    /// `max/min/avg(x_l)` — a statistic of the attacked image's pixel at
    /// the popped location.
    Pixel(PixelStat),
    /// `score_diff(N(x), N(x[l←p]), c_x)` — the drop in the true class's
    /// score caused by the perturbation.
    ScoreDiff,
    /// `center(l)` — the `L∞` distance of the location from the image
    /// centre.
    Center,
}

impl Func {
    /// All functions of the grammar, in a stable order.
    pub const ALL: [Func; 5] = [
        Func::Pixel(PixelStat::Max),
        Func::Pixel(PixelStat::Min),
        Func::Pixel(PixelStat::Avg),
        Func::ScoreDiff,
        Func::Center,
    ];
}

/// Comparison operator of a condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Cmp {
    /// `F < r`.
    Lt,
    /// `F > r`.
    Gt,
}

/// One condition `Bᵢ`.
///
/// The paper's grammar produces only [`Condition::Compare`] (plus
/// [`Condition::Const`] for the ablation baselines). The boolean
/// combinators [`Condition::Not`], [`Condition::And`] and
/// [`Condition::Or`] belong to this reproduction's *extended grammar* —
/// an opt-in richer search space (see
/// [`GrammarConfig`](crate::dsl::GrammarConfig)); the paper-faithful
/// sampler never generates them.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Condition {
    /// A grammar condition `F ⋈ r`.
    Compare {
        /// The measured function.
        func: Func,
        /// The comparison direction.
        cmp: Cmp,
        /// The threshold constant `r`.
        threshold: f64,
    },
    /// A constant condition (baselines only; not synthesized).
    Const(bool),
    /// Negation (extended grammar).
    Not(Box<Condition>),
    /// Conjunction (extended grammar).
    And(Box<Condition>, Box<Condition>),
    /// Disjunction (extended grammar).
    Or(Box<Condition>, Box<Condition>),
}

impl Condition {
    /// The always-false condition (Sketch+False baseline).
    pub const FALSE: Condition = Condition::Const(false);

    /// The always-true condition.
    pub const TRUE: Condition = Condition::Const(true);

    /// The number of AST nodes in this condition (1 for leaves).
    pub fn size(&self) -> usize {
        match self {
            Condition::Compare { .. } | Condition::Const(_) => 1,
            Condition::Not(inner) => 1 + inner.size(),
            Condition::And(a, b) | Condition::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// The nesting depth of this condition (1 for leaves).
    pub fn depth(&self) -> usize {
        match self {
            Condition::Compare { .. } | Condition::Const(_) => 1,
            Condition::Not(inner) => 1 + inner.depth(),
            Condition::And(a, b) | Condition::Or(a, b) => 1 + a.depth().max(b.depth()),
        }
    }

    /// True when the condition uses only the paper's grammar (no boolean
    /// combinators).
    pub fn is_paper_grammar(&self) -> bool {
        matches!(self, Condition::Compare { .. } | Condition::Const(_))
    }

    /// True when the condition can read the perturbed scores
    /// (`score_diff` occurs in it). A condition that reads no scores
    /// depends only on the image and the location, so its value for a
    /// candidate is known before the candidate is queried.
    pub fn reads_scores(&self) -> bool {
        match self {
            Condition::Compare { func, .. } => *func == Func::ScoreDiff,
            Condition::Const(_) => false,
            Condition::Not(inner) => inner.reads_scores(),
            Condition::And(a, b) | Condition::Or(a, b) => a.reads_scores() || b.reads_scores(),
        }
    }
}

/// A complete adversarial program: the sketch's four conditions.
///
/// `conditions[0]` is `B₁` (push back location neighbours), `[1]` is `B₂`
/// (push back the next perturbation), `[2]` is `B₃` (eagerly check
/// location neighbours), `[3]` is `B₄` (eagerly check the next
/// perturbation).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Program {
    /// `(B₁, B₂, B₃, B₄)`.
    pub conditions: [Condition; 4],
}

impl Program {
    /// Creates a program from its four conditions.
    pub fn new(conditions: [Condition; 4]) -> Self {
        Program { conditions }
    }

    /// The constant program with every condition set to `value`.
    ///
    /// `Program::constant(false)` is the paper's fixed-prioritization
    /// baseline: no reordering ever fires, so the attack follows the
    /// initial queue order exactly.
    pub fn constant(value: bool) -> Self {
        Program {
            conditions: [
                Condition::Const(value),
                Condition::Const(value),
                Condition::Const(value),
                Condition::Const(value),
            ],
        }
    }

    /// True when every condition uses only the paper's grammar.
    pub fn is_paper_grammar(&self) -> bool {
        self.conditions.iter().all(Condition::is_paper_grammar)
    }

    /// The running example of Section 3.2 of the paper.
    pub fn paper_example() -> Self {
        Program::new([
            Condition::Compare {
                func: Func::ScoreDiff,
                cmp: Cmp::Lt,
                threshold: 0.21,
            },
            Condition::Compare {
                func: Func::Pixel(PixelStat::Max),
                cmp: Cmp::Gt,
                threshold: 0.19,
            },
            Condition::Compare {
                func: Func::ScoreDiff,
                cmp: Cmp::Gt,
                threshold: 0.25,
            },
            Condition::Compare {
                func: Func::Center,
                cmp: Cmp::Lt,
                threshold: 8.0,
            },
        ])
    }
}

impl fmt::Display for PixelStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PixelStat::Max => "max",
            PixelStat::Min => "min",
            PixelStat::Avg => "avg",
        })
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Func::Pixel(stat) => write!(f, "{stat}(x_l)"),
            Func::ScoreDiff => f.write_str("score_diff(N(x), N(x[l<-p]), c_x)"),
            Func::Center => f.write_str("center(l)"),
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Lt => "<",
            Cmp::Gt => ">",
        })
    }
}

impl Condition {
    /// Precedence level for printing: higher binds tighter.
    fn precedence(&self) -> u8 {
        match self {
            Condition::Or(..) => 0,
            Condition::And(..) => 1,
            Condition::Not(_) => 2,
            Condition::Compare { .. } | Condition::Const(_) => 3,
        }
    }

    fn fmt_with_parens(&self, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        let mine = self.precedence();
        if mine < parent {
            f.write_str("(")?;
        }
        match self {
            Condition::Compare {
                func,
                cmp,
                threshold,
            } => write!(f, "{func} {cmp} {threshold}")?,
            Condition::Const(true) => f.write_str("true")?,
            Condition::Const(false) => f.write_str("false")?,
            Condition::Not(inner) => {
                f.write_str("!")?;
                inner.fmt_with_parens(f, 3)?;
            }
            Condition::And(a, b) => {
                a.fmt_with_parens(f, 1)?;
                f.write_str(" && ")?;
                b.fmt_with_parens(f, 2)?;
            }
            Condition::Or(a, b) => {
                a.fmt_with_parens(f, 0)?;
                f.write_str(" || ")?;
                b.fmt_with_parens(f, 1)?;
            }
        }
        if mine < parent {
            f.write_str(")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with_parens(f, 0)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, cond) in self.conditions.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "B{}: {cond}", i + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_false_program_displays() {
        let p = Program::constant(false);
        assert_eq!(p.to_string(), "B1: false; B2: false; B3: false; B4: false");
    }

    #[test]
    fn paper_example_displays_like_the_paper() {
        let p = Program::paper_example();
        let s = p.to_string();
        assert!(
            s.contains("B1: score_diff(N(x), N(x[l<-p]), c_x) < 0.21"),
            "{s}"
        );
        assert!(s.contains("B2: max(x_l) > 0.19"), "{s}");
        assert!(
            s.contains("B3: score_diff(N(x), N(x[l<-p]), c_x) > 0.25"),
            "{s}"
        );
        assert!(s.contains("B4: center(l) < 8"), "{s}");
    }

    #[test]
    fn reads_scores_finds_score_diff_at_any_depth() {
        let [b1, b2, b3, b4] = Program::paper_example().conditions;
        assert!(b1.reads_scores() && b3.reads_scores());
        assert!(!b2.reads_scores() && !b4.reads_scores());
        assert!(!Condition::TRUE.reads_scores());
        let nested = Condition::Or(Box::new(b2.clone()), Box::new(Condition::Not(Box::new(b3))));
        assert!(nested.reads_scores());
        assert!(!Condition::And(Box::new(b2), Box::new(b4)).reads_scores());
    }

    #[test]
    fn func_all_covers_the_grammar() {
        assert_eq!(Func::ALL.len(), 5);
        let mut unique = Func::ALL.to_vec();
        unique.dedup();
        assert_eq!(unique.len(), 5);
    }
}
