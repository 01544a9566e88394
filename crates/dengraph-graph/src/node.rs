//! Node identifiers.

/// A compact node identifier.
///
/// The event-detection layer maps keyword ids onto node ids one-to-one, but
/// the graph substrate itself is agnostic about what a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl Ord for NodeId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for NodeId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let n: NodeId = 5u32.into();
        assert_eq!(n.index(), 5);
        assert_eq!(n.to_string(), "n5");
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(3), NodeId(3));
    }
}
