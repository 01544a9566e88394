//! Light suffix-stripping normaliser.
//!
//! Different users describing the same event use trivially inflected forms
//! ("quake"/"quakes", "warning"/"warnings").  Mapping these onto a single
//! graph node increases the spatial correlation the paper relies on without
//! pulling in a full stemming dependency.  This is intentionally much weaker
//! than a Porter stemmer: it only strips plural `-s`/`-es` and possessive
//! `'s`, and never rewrites short words where stripping is risky.

/// Normalises a single lower-cased word in place.
///
/// Rules (applied once, in order):
/// 1. strip a possessive `'s` / trailing apostrophe,
/// 2. strip plural `-ies` → `-y` for words of length ≥ 5,
/// 3. strip plural `-es` when preceded by `s`, `x`, `z`, `ch`, `sh`,
/// 4. strip a final `-s` (but not `-ss`, `-us`) for words of length ≥ 4.
///
/// Lengths are in bytes.  Every suffix is ASCII, so each cut lands on a
/// character boundary.
pub fn stem(w: &mut String) {
    // Every rule needs a final `s` or apostrophe; most words have neither.
    if !matches!(w.as_bytes().last(), Some(b's' | b'\'')) {
        return;
    }
    if w.ends_with("'s") {
        w.truncate(w.len() - 2);
    } else if w.ends_with('\'') {
        w.pop();
    }
    if w.len() >= 5 && w.ends_with("ies") {
        w.truncate(w.len() - 3);
        w.push('y');
        return;
    }
    if w.len() >= 4 {
        if let Some(stem) = w.strip_suffix("es") {
            if stem.ends_with(['s', 'x', 'z']) || stem.ends_with("ch") || stem.ends_with("sh") {
                w.truncate(stem.len());
                return;
            }
        }
        if w.ends_with('s') && !w.ends_with("ss") && !w.ends_with("us") {
            w.pop();
        }
    }
}

/// The `String`-returning stemmer [`stem`] replaced, kept verbatim as the
/// reference of the differential tests (here and in `pipeline`).
#[cfg(test)]
pub(crate) fn reference_normalize(word: &str) -> String {
    let mut w = word.to_string();
    if let Some(stripped) = w.strip_suffix("'s") {
        w = stripped.to_string();
    } else if let Some(stripped) = w.strip_suffix('\'') {
        w = stripped.to_string();
    }
    if w.len() >= 5 {
        if let Some(stem) = w.strip_suffix("ies") {
            return format!("{stem}y");
        }
    }
    if w.len() >= 4 {
        if let Some(stem) = w.strip_suffix("es") {
            if stem.ends_with('s')
                || stem.ends_with('x')
                || stem.ends_with('z')
                || stem.ends_with("ch")
                || stem.ends_with("sh")
            {
                return stem.to_string();
            }
        }
    }
    if w.len() >= 4 && w.ends_with('s') && !w.ends_with("ss") && !w.ends_with("us") {
        w.pop();
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normalize(word: &str) -> String {
        let mut w = word.to_string();
        stem(&mut w);
        assert_eq!(w, reference_normalize(word), "{word:?}");
        w
    }

    #[test]
    fn strips_simple_plurals() {
        assert_eq!(normalize("earthquakes"), "earthquake");
        assert_eq!(normalize("warnings"), "warning");
        assert_eq!(normalize("jobs"), "job");
    }

    #[test]
    fn strips_es_plurals() {
        assert_eq!(normalize("crashes"), "crash");
        assert_eq!(normalize("boxes"), "box");
    }

    #[test]
    fn strips_ies_plurals() {
        assert_eq!(normalize("stories"), "story");
        assert_eq!(normalize("parties"), "party");
    }

    #[test]
    fn strips_possessives() {
        assert_eq!(normalize("ross's"), "ross");
        assert_eq!(normalize("obama's"), "obama");
    }

    #[test]
    fn keeps_short_and_ss_words() {
        assert_eq!(normalize("bus"), "bus");
        assert_eq!(normalize("as"), "as");
        assert_eq!(normalize("loss"), "loss");
        assert_eq!(normalize("virus"), "virus");
    }

    #[test]
    fn keeps_non_plural_words() {
        assert_eq!(normalize("turkey"), "turkey");
        assert_eq!(normalize("5.9"), "5.9");
    }

    #[test]
    fn matches_the_reference_on_edge_shapes() {
        for w in [
            "", "s", "'s", "'", "es", "ies", "xies", "skies", "ses", "ches", "aches", "shes",
            "axes", "buzzes", "ss's", "bus's", "ross'", "énies", "日本s", "éés", "üs", "ües",
            "üxes",
        ] {
            normalize(w);
        }
    }

    #[test]
    fn idempotent_on_already_normalised_words() {
        for w in ["earthquake", "tornado", "warning", "story"] {
            assert_eq!(normalize(&normalize(w)), normalize(w));
        }
    }
}
