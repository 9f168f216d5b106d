//! Register names as structured values, rendered only when read.
//!
//! Every register carries a name for diagnostics — `Heartbeat[3]`,
//! `Counter[{p0,p1}#0,p2]`, `kset[0].rec[2]` — but nothing on the run path
//! ever reads one: only [`Memory::name`](crate::Memory::name), the
//! [`RegisterStats`](crate::RegisterStats) of a report and the
//! [`SimError`](crate::SimError) paths do. A [`RegName`] therefore stores
//! the *parts* of a name (a label plus up to two indices) and renders the
//! text through [`Display`](fmt::Display) on demand. Allocating a batch of
//! registers (`alloc_per_process`, a counter matrix) formats nothing, and
//! names with static labels or custom renderers allocate nothing per
//! register and clone by copy; only a scoped prefix (`kset[0].rec`) is
//! reference-counted, once per batch.
//!
//! Two names are equal when they render to the same text, so names built
//! by different simulators (the async and machine ABIs of a differential
//! test) compare as their strings did.

use std::fmt;
use std::rc::Rc;

/// Renders a custom name from the three words stored with it, e.g. a
/// counter labeled by the candidate set its rank stands for. See
/// [`RegName::custom`].
pub type NameRender = fn(&mut fmt::Formatter<'_>, [u32; 3]) -> fmt::Result;

/// A register name: a label with up to two indices, rendered on demand.
///
/// # Examples
///
/// ```
/// use st_sim::RegName;
///
/// let hb = RegName::new("Heartbeat");
/// assert_eq!(hb.index(3).to_string(), "Heartbeat[3]");
/// assert_eq!(RegName::new("LeanCnt").pair(4, 1).to_string(), "LeanCnt[4,1]");
/// let rec = RegName::new("kset").index(0).scoped(".rec");
/// assert_eq!(rec.index(2).to_string(), "kset[0].rec[2]");
/// ```
#[derive(Clone)]
pub struct RegName(Repr);

#[derive(Clone)]
enum Repr {
    /// `{label}`.
    Label(Label),
    /// `{label}[{i}]`.
    Index(Label, u32),
    /// `{label}[{i},{j}]`.
    Pair(Label, u32, u32),
    /// Whatever the renderer writes for the stored words.
    Custom(NameRender, [u32; 3]),
}

#[derive(Clone)]
enum Label {
    Static(&'static str),
    Owned(Rc<str>),
    /// `{parent}{suffix}`: a name nested under another, e.g. `kset[0]` +
    /// `.rec`.
    Scoped(Rc<(RegName, &'static str)>),
}

impl RegName {
    /// A name that is just `label`.
    pub const fn new(label: &'static str) -> Self {
        RegName(Repr::Label(Label::Static(label)))
    }

    /// A name rendered by `render` from `words` (indices, or parameters
    /// the renderer needs to re-derive the name).
    pub const fn custom(render: NameRender, words: [u32; 3]) -> Self {
        RegName(Repr::Custom(render, words))
    }

    /// `{self}[{i}]`.
    pub fn index(&self, i: usize) -> Self {
        RegName(Repr::Index(self.label(), index(i)))
    }

    /// `{self}[{i},{j}]`.
    pub fn pair(&self, i: usize, j: usize) -> Self {
        RegName(Repr::Pair(self.label(), index(i), index(j)))
    }

    /// `{self}{suffix}`, e.g. `kset[0]` scoped by `.decision`.
    pub fn scoped(&self, suffix: &'static str) -> Self {
        RegName(Repr::Label(Label::Scoped(Rc::new((self.clone(), suffix)))))
    }

    /// This name as the label of an indexed name: free for a bare label,
    /// one shared allocation for anything else.
    fn label(&self) -> Label {
        match &self.0 {
            Repr::Label(label) => label.clone(),
            _ => Label::Scoped(Rc::new((self.clone(), ""))),
        }
    }
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("register name index fits in u32")
}

impl From<&'static str> for RegName {
    fn from(label: &'static str) -> Self {
        RegName::new(label)
    }
}

impl From<String> for RegName {
    fn from(label: String) -> Self {
        RegName(Repr::Label(Label::Owned(label.into())))
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Static(s) => f.write_str(s),
            Label::Owned(s) => f.write_str(s),
            Label::Scoped(scoped) => write!(f, "{}{}", scoped.0, scoped.1),
        }
    }
}

impl fmt::Display for RegName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Label(label) => label.fmt(f),
            Repr::Index(label, i) => write!(f, "{label}[{i}]"),
            Repr::Pair(label, i, j) => write!(f, "{label}[{i},{j}]"),
            Repr::Custom(render, words) => render(f, *words),
        }
    }
}

/// Debug-prints as the rendered string, exactly as a `String` name did.
impl fmt::Debug for RegName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl RegName {
    /// Whether this name renders exactly as `text`, streamed without
    /// allocating.
    fn renders_as(&self, text: &str) -> bool {
        struct Rest<'a>(&'a str);
        impl fmt::Write for Rest<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Rest(text);
        fmt::write(&mut rest, format_args!("{self}")).is_ok() && rest.0.is_empty()
    }
}

impl PartialEq for RegName {
    fn eq(&self, other: &Self) -> bool {
        self.renders_as(&other.to_string())
    }
}

impl Eq for RegName {}

impl PartialEq<&str> for RegName {
    fn eq(&self, other: &&str) -> bool {
        self.renders_as(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_shape() {
        assert_eq!(RegName::new("x").to_string(), "x");
        assert_eq!(RegName::from(String::from("owned")).index(1), "owned[1]");
        assert_eq!(RegName::new("LeanCnt").pair(7, 0), "LeanCnt[7,0]");
        let kset = RegName::new("kset").index(0);
        assert_eq!(kset.scoped(".decision"), "kset[0].decision");
        assert_eq!(kset.scoped(".rec").index(2), "kset[0].rec[2]");
        // Indexing an indexed name nests, as `bg.cell[u][s]` does.
        assert_eq!(RegName::new("bg.cell").index(3).index(1), "bg.cell[3][1]");
        let render: NameRender = |f, [q, p, _]| write!(f, "pt.Counter[p{q},p{p}]");
        assert_eq!(RegName::custom(render, [2, 5, 0]), "pt.Counter[p2,p5]");
    }

    #[test]
    fn equality_and_debug_follow_the_text() {
        let render: NameRender = |f, [i, _, _]| write!(f, "x[{i}]");
        assert_eq!(
            RegName::custom(render, [4, 9, 0]),
            RegName::new("x").index(4)
        );
        assert_ne!(RegName::new("x").index(4), RegName::new("x").index(5));
        // A rendering that is a strict prefix or extension is not equal.
        assert_ne!(RegName::new("x").index(4), "x[4]]");
        assert_ne!(RegName::new("x").index(4), "x[4");
        assert_eq!(
            format!("{:?}", RegName::new("Heartbeat").index(3)),
            format!("{:?}", "Heartbeat[3]")
        );
    }
}
