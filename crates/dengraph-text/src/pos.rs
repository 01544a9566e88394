//! Lightweight part-of-speech heuristic.
//!
//! The paper's precision analysis (Section 7.2.2) uses the Stanford POS
//! tagger to require that a reported event cluster contain **at least one
//! noun keyword**; clusters made of non-noun words only are treated as
//! spurious.  Shipping the Stanford tagger is out of scope (it is an
//! external Java artefact), so we substitute a deterministic heuristic:
//! a small embedded lexicon of unambiguous non-nouns plus suffix rules,
//! a reasonable approximation on free text.

use std::collections::HashSet;
use std::sync::OnceLock;

/// Coarse word class used by the event-quality filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WordClass {
    /// Likely a noun (default for unknown content words).
    Noun,
    /// A verb, adjective, adverb or other non-noun content word.
    OtherContent,
    /// A number (kept as keyword but never counts as the required noun).
    Number,
}

/// Words that are common in microblog chatter and clearly not nouns.
/// The list is deliberately small: the heuristic defaults to `Noun`.
const NON_NOUNS: &[&str] = &[
    "awesome",
    "amazing",
    "massive",
    "moderate",
    "huge",
    "breaking",
    "live",
    "dead",
    "new",
    "watch",
    "watching",
    "see",
    "seen",
    "look",
    "looking",
    "go",
    "going",
    "gone",
    "come",
    "coming",
    "run",
    "running",
    "struck",
    "strike",
    "hit",
    "hits",
    "found",
    "find",
    "kill",
    "kills",
    "killed",
    "die",
    "dies",
    "died",
    "win",
    "wins",
    "won",
    "lose",
    "loses",
    "lost",
    "make",
    "makes",
    "made",
    "take",
    "takes",
    "took",
    "give",
    "gives",
    "gave",
    "say",
    "says",
    "said",
    "tell",
    "tells",
    "told",
    "think",
    "thinks",
    "thought",
    "feel",
    "feels",
    "felt",
    "really",
    "very",
    "quite",
    "totally",
    "seriously",
    "literally",
    "probably",
    "maybe",
    "today",
    "tomorrow",
    "yesterday",
    "soon",
    "never",
    "always",
    "still",
    "already",
    "good",
    "bad",
    "great",
    "terrible",
    "horrible",
    "sad",
    "happy",
    "angry",
    "scared",
    "big",
    "small",
    "high",
    "low",
    "hot",
    "cold",
    "fast",
    "slow",
    "early",
    "late",
    "issued",
    "reverses",
    "seeking",
    "pounds",
    "worth",
    "more",
    "than",
    "will",
];

/// Noun-like suffixes used when a word is not in the lexicon and does not
/// look like a verb/adverb.
const NOUN_SUFFIXES: &[&str] = &[
    "tion", "sion", "ment", "ness", "ship", "hood", "ism", "ist", "ity", "age", "ance", "ence",
    "quake", "storm", "fire",
];

/// Suffixes that strongly suggest a non-noun.
const NON_NOUN_SUFFIXES: &[&str] = &["ly", "ing", "ed", "ive", "ous", "ful", "able", "ible"];

fn non_noun_set() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| NON_NOUNS.iter().copied().collect())
}

/// Deterministic noun heuristic: the embedded lexicon and suffix rules.
#[derive(Debug, Default, Clone)]
pub struct NounHeuristic;

impl NounHeuristic {
    /// Creates the heuristic.
    pub fn new() -> Self {
        Self
    }

    /// Classifies a lower-cased word.
    pub fn classify(&self, word: &str) -> WordClass {
        if word.chars().all(|c| c.is_ascii_digit() || c == '.') {
            return WordClass::Number;
        }
        if non_noun_set().contains(word) {
            return WordClass::OtherContent;
        }
        if NOUN_SUFFIXES.iter().any(|s| word.ends_with(s)) {
            return WordClass::Noun;
        }
        if NON_NOUN_SUFFIXES.iter().any(|s| word.ends_with(s)) && word.len() > 4 {
            return WordClass::OtherContent;
        }
        WordClass::Noun
    }

    /// Returns `true` when the word is classified as a noun.
    pub fn is_noun(&self, word: &str) -> bool {
        self.classify(word) == WordClass::Noun
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_nouns_are_nouns() {
        let h = NounHeuristic::new();
        for w in [
            "earthquake",
            "turkey",
            "tornado",
            "senator",
            "election",
            "apple",
        ] {
            assert_eq!(h.classify(w), WordClass::Noun, "{w}");
        }
    }

    #[test]
    fn lexicon_non_nouns_are_rejected() {
        let h = NounHeuristic::new();
        for w in ["awesome", "massive", "watch", "struck", "really"] {
            assert_eq!(h.classify(w), WordClass::OtherContent, "{w}");
        }
    }

    #[test]
    fn numbers_are_numbers() {
        let h = NounHeuristic::new();
        assert_eq!(h.classify("5.9"), WordClass::Number);
        assert_eq!(h.classify("150"), WordClass::Number);
    }

    #[test]
    fn suffix_rules_apply() {
        let h = NounHeuristic::new();
        assert_eq!(h.classify("devastation"), WordClass::Noun);
        assert_eq!(h.classify("quickly"), WordClass::OtherContent);
        assert_eq!(h.classify("flooding"), WordClass::OtherContent);
    }
}
