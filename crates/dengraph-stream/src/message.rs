//! The microblog message model.

use dengraph_text::KeywordId;

/// A unique microblog user.
///
/// The paper computes edge correlation over *user* ids rather than message
/// ids "so as to avoid the case of a single user flooding the same message
/// multiple times" (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserId(pub u64);

impl Ord for UserId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for UserId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl UserId {
    /// Returns the raw id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// One microblog message, already reduced to its keyword set.
///
/// `time` is a monotonically non-decreasing sequence number (the message
/// index in the trace); the detector only relies on ordering, never on wall
/// clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The author.
    pub user: UserId,
    /// Monotone sequence number / arrival index.
    pub time: u64,
    /// De-duplicated keyword ids of the message (stop words already removed).
    pub keywords: Vec<KeywordId>,
}

impl Message {
    /// Creates a message.
    pub fn new(user: UserId, time: u64, keywords: Vec<KeywordId>) -> Self {
        Self {
            user,
            time,
            keywords,
        }
    }

    /// Returns `true` when the message carries no usable keywords.
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_construction() {
        let m = Message::new(UserId(7), 3, vec![KeywordId(1), KeywordId(2)]);
        assert_eq!(m.user.raw(), 7);
        assert_eq!(m.time, 3);
        assert_eq!(m.keywords.len(), 2);
        assert!(!m.is_empty());
        assert!(Message::new(UserId(1), 0, vec![]).is_empty());
    }

    #[test]
    fn user_display() {
        assert_eq!(UserId(42).to_string(), "u42");
    }

    #[test]
    fn message_json_round_trip() {
        let m = Message::new(UserId(7), 3, vec![KeywordId(1)]);
        let json = dengraph_json::to_string(&crate::json::message_to_value(&m));
        let back = crate::json::message_from_value(&dengraph_json::parse(&json).unwrap()).unwrap();
        assert_eq!(m, back);
    }
}
