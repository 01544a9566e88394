//! The benchmark's own seeded, parameterised microblog generator.
//!
//! The benchmark must be able to say "this input is the same as last
//! month's", so it does not borrow `dengraph_stream::generator` (program
//! code a later change may edit): everything here — the PRNG, the Zipf
//! sampler, the event and family schedules, the word names and the text
//! rendering — belongs to the benchmark, and [`Stream::digest`] pins it.
//!
//! A [`StreamSpec`] describes a stream by the properties the detector's
//! cost depends on: how skewed the chatter vocabulary is (Zipf exponent,
//! vocabulary size), how many distinct authors post, how dense and how
//! strong the planted events are, and how many *pulsing keyword families*
//! keep a dense keyword graph resident.  [`generate`] turns a spec and a
//! seed into abstract [`Post`]s (author index + word indices) plus the
//! planted ground truth; [`render_line`] turns a post into the raw
//! JSON-lines text a deployment would receive.

use crate::digest::Digest;

// ---------------------------------------------------------------------------
// PRNG
// ---------------------------------------------------------------------------

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose whole sequence is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// The category of a planted event (the paper's Section 7.1 classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A real event with a headline; counts towards recall.
    Headline,
    /// A real event of local interest only; counts towards recall.
    LocalOnly,
    /// A trickle below any burstiness threshold; excluded from recall.
    TooWeak,
    /// A one- or two-round burst that dies; reporting it costs precision.
    Spurious,
}

/// Planted real-world events: trapezoidal bursts of correlated keywords,
/// each with fresh keyword names.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Events per 600 rounds, by kind: headline, local-only, too-weak,
    /// spurious.
    pub per_600_rounds: [usize; 4],
    /// Peak posts per round of a full-strength event (inclusive range).
    pub peak: (u32, u32),
    /// Rounds a full-strength event lasts (inclusive range).
    pub duration: (usize, usize),
    /// Probability that an event post mentions each active event keyword.
    pub keyword_prob: f64,
}

impl EventSpec {
    /// No planted events.
    pub fn none() -> Self {
        Self {
            per_600_rounds: [0; 4],
            peak: (0, 0),
            duration: (1, 1),
            keyword_prob: 0.0,
        }
    }
}

/// Pulsing keyword families: `count` disjoint groups of `size` keywords,
/// each re-bursting for one round every `period` rounds (staggered), so
/// dormant families stay resident in a `period`-plus-long window.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    /// Number of families.
    pub count: usize,
    /// Keywords per family.
    pub size: usize,
    /// Rounds between two pulses of one family.
    pub period: usize,
    /// Every `mortal_every`-th family stops pulsing halfway through the
    /// stream (0 = none), so node removal and component splits occur.
    pub mortal_every: usize,
    /// Posts per pulse (inclusive range).
    pub pulse: (u32, u32),
    /// Probability that a family post mentions each family keyword.
    pub keyword_prob: f64,
}

impl FamilySpec {
    /// No families.
    pub fn none() -> Self {
        Self {
            count: 0,
            size: 0,
            period: 1,
            mortal_every: 0,
            pulse: (0, 0),
            keyword_prob: 0.0,
        }
    }
}

/// Everything that shapes a generated stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Generation rounds; the stream holds exactly `rounds * round_size`
    /// posts.
    pub rounds: usize,
    /// Posts per round (the detector's nominal quantum, 160).
    pub round_size: usize,
    /// Size of the background chatter vocabulary.
    pub vocabulary: usize,
    /// Zipf exponent of the chatter vocabulary (0 = uniform).
    pub zipf_exponent: f64,
    /// Number of distinct authors.
    pub authors: u32,
    /// Keywords per background post (inclusive range).
    pub keywords_per_post: (usize, usize),
    /// Planted events.
    pub events: EventSpec,
    /// Pulsing families.
    pub families: FamilySpec,
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// One abstract post: who wrote it, when, and which words (indices into
/// the stream's word space, see [`word_name`]) it mentions, in order and
/// without repeats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Post {
    /// Author index in `0..spec.authors`.
    pub author: u32,
    /// Position in the stream.
    pub time: u64,
    /// Mentioned word indices.
    pub words: Vec<u32>,
}

/// One planted event or family, the benchmark's ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Planted {
    /// Dense id within the stream.
    pub id: u32,
    /// Category.
    pub kind: Kind,
    /// Every word the event can emit; the first `core` are active from the
    /// first round, the rest join later.
    pub words: Vec<u32>,
    /// Number of core words.
    pub core: usize,
    /// First active round.
    pub start_round: usize,
    /// Active rounds.
    pub duration_rounds: usize,
    /// Peak posts per round.
    pub peak: u32,
}

/// A generated stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The posts, in stream order.
    pub posts: Vec<Post>,
    /// Planted events first (by kind), then one entry per family.
    pub planted: Vec<Planted>,
    /// Size of the word index space (`vocabulary` + planted words).
    pub word_count: usize,
}

impl Stream {
    /// Digest of every post (author, time, words).
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for post in &self.posts {
            d.u64(u64::from(post.author));
            d.u64(post.time);
            d.u64(post.words.len() as u64);
            for &w in &post.words {
                d.u64(u64::from(w));
            }
        }
        d.value()
    }
}

// ---------------------------------------------------------------------------
// Word names
// ---------------------------------------------------------------------------

const CONSONANTS: &[u8] = b"bdfgklmnprtz";
const VOWELS: &[u8] = b"aeiou";
const FINALS: &[u8] = b"kmnprt";
const SYLLABLES: usize = CONSONANTS.len() * VOWELS.len();

/// The spelling of word `index`: two (for the 3 600 most frequent words)
/// or three consonant–vowel syllables and a final consonant, e.g.
/// `badak`, `dofuzim`.  Every eighth word carries `-ing`, which the
/// detector's noun heuristic classes as a non-noun.
///
/// The alphabet avoids `s`, `h`, `w`, `v`, `y` and `'`, so no name is an
/// English stop word or changes under the text layer's plural stemmer;
/// set-up verifies that on every run.
pub fn word_name(index: u32) -> String {
    let index = index as usize;
    let short = SYLLABLES * SYLLABLES;
    let (mut code, syllables) = if index < short {
        (index, 2)
    } else {
        (index - short, 3)
    };
    assert!(
        code < SYLLABLES.pow(syllables),
        "word index {index} outside the name space"
    );
    let mut name = String::with_capacity(10);
    for _ in 0..syllables {
        let syllable = code % SYLLABLES;
        code /= SYLLABLES;
        name.push(CONSONANTS[syllable / VOWELS.len()] as char);
        name.push(VOWELS[syllable % VOWELS.len()] as char);
    }
    name.push(FINALS[index % FINALS.len()] as char);
    if index % 8 == 5 {
        name.push_str("ing");
    }
    name
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// Cumulative Zipf distribution over `0..size`.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(size: usize, exponent: f64) -> Self {
        let size = size.max(1);
        let weights: Vec<f64> = (1..=size)
            .map(|rank| (rank as f64).powf(-exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cumulative }
    }

    fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let idx = self.cumulative.partition_point(|&c| c < u);
        idx.min(self.cumulative.len() - 1) as u32
    }
}

/// Posts an event emits in `round`: a trapezoid for real events (ramp up
/// over the first third, hold, ramp down over the last third), a
/// rectangle for spurious bursts, a trickle for too-weak ones.
fn intensity(event: &Planted, round: usize) -> u32 {
    if round < event.start_round || round >= event.start_round + event.duration_rounds {
        return 0;
    }
    let offset = (round - event.start_round) as u64;
    let duration = event.duration_rounds.max(1) as u64;
    let peak = u64::from(event.peak);
    match event.kind {
        Kind::Spurious => event.peak,
        Kind::TooWeak => event.peak.min(2),
        Kind::Headline | Kind::LocalOnly => {
            let ramp = (duration / 3).max(1);
            let scaled = if offset < ramp {
                peak * (offset + 1) / ramp
            } else if offset >= duration - ramp {
                peak * (duration - offset) / ramp
            } else {
                peak
            };
            (scaled as u32).max(1)
        }
    }
}

/// Draws the event schedule.  Every third real event is *marginal* — a
/// short, weak burst near the burstiness threshold — which is what keeps
/// recall below 100 % and sensitive to detector changes.
fn plant_events(spec: &StreamSpec, rng: &mut Rng, next_word: &mut u32) -> Vec<Planted> {
    const KINDS: [Kind; 4] = [
        Kind::Headline,
        Kind::LocalOnly,
        Kind::TooWeak,
        Kind::Spurious,
    ];
    let events = &spec.events;
    let mut planted = Vec::new();
    for (kind, per_600) in KINDS.into_iter().zip(events.per_600_rounds) {
        let count = (per_600 * spec.rounds + 300) / 600;
        for i in 0..count {
            let real = matches!(kind, Kind::Headline | Kind::LocalOnly);
            let marginal = real && i % 3 == 2;
            let duration = match kind {
                Kind::Spurious => rng.range(1, 2),
                _ if marginal => rng.range(2, 4),
                _ => rng.range(events.duration.0 as u64, events.duration.1 as u64),
            } as usize;
            let latest_start = spec.rounds.saturating_sub(duration + 2).max(2);
            let start_round = rng.range(2, latest_start as u64) as usize;
            let peak = match kind {
                Kind::TooWeak => 1,
                _ if marginal => rng.range(4, 8) as u32,
                _ => rng.range(u64::from(events.peak.0), u64::from(events.peak.1)) as u32,
            };
            // Four core keywords and two that join on the event's third
            // and fourth round (the "5.9" of the paper's Figure 1).
            let words: Vec<u32> = (*next_word..*next_word + 6).collect();
            *next_word += 6;
            planted.push(Planted {
                id: planted.len() as u32,
                kind,
                words,
                core: 4,
                start_round,
                duration_rounds: duration,
                peak,
            });
        }
    }
    planted
}

/// Chooses the keywords of one event or family post: each of `active`
/// with probability `keyword_prob`, but never fewer than two (when two
/// exist), so co-occurrence can form.
fn pick_keywords(active: &[u32], keyword_prob: f64, rng: &mut Rng, out: &mut Vec<u32>) {
    out.clear();
    out.extend(active.iter().copied().filter(|_| rng.chance(keyword_prob)));
    if out.len() < 2 && active.len() >= 2 {
        out.clear();
        let first = rng.below(active.len() as u64) as usize;
        let mut second = rng.below(active.len() as u64 - 1) as usize;
        if second >= first {
            second += 1;
        }
        out.push(active[first]);
        out.push(active[second]);
    } else if out.is_empty() {
        out.extend_from_slice(active);
    }
}

/// Generates the stream described by `spec` from `seed`.
pub fn generate(spec: &StreamSpec, seed: u64) -> Stream {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(spec.vocabulary, spec.zipf_exponent);
    let mut next_word = spec.vocabulary as u32;
    let mut planted = plant_events(spec, &mut rng, &mut next_word);
    let event_count = planted.len();

    let families = &spec.families;
    for family in 0..families.count {
        let words: Vec<u32> = (next_word..next_word + families.size as u32).collect();
        next_word += families.size as u32;
        planted.push(Planted {
            id: planted.len() as u32,
            kind: Kind::LocalOnly,
            core: words.len(),
            words,
            start_round: 2 + family % families.period,
            duration_rounds: spec.rounds,
            peak: families.pulse.1,
        });
    }

    let authors = u64::from(spec.authors.max(1));
    let mut posts: Vec<Post> = Vec::with_capacity(spec.rounds * spec.round_size);
    let mut round_posts: Vec<Post> = Vec::with_capacity(spec.round_size);
    let mut active: Vec<u32> = Vec::new();
    let mut words: Vec<u32> = Vec::new();
    for round in 0..spec.rounds {
        round_posts.clear();

        for event in &planted[..event_count] {
            let count = intensity(event, round);
            if count == 0 {
                continue;
            }
            active.clear();
            active.extend(event.words.iter().enumerate().filter_map(|(j, &w)| {
                let joins_at = if j < event.core {
                    0
                } else {
                    j - event.core + 2
                };
                (round >= event.start_round + joins_at).then_some(w)
            }));
            for _ in 0..count {
                if round_posts.len() == spec.round_size {
                    break;
                }
                let author = rng.below(authors) as u32;
                pick_keywords(&active, spec.events.keyword_prob, &mut rng, &mut words);
                if rng.chance(0.3) {
                    let noise = zipf.sample(&mut rng);
                    if !words.contains(&noise) {
                        words.push(noise);
                    }
                }
                round_posts.push(Post {
                    author,
                    time: 0,
                    words: words.clone(),
                });
            }
        }

        for (family, group) in planted[event_count..].iter().enumerate() {
            let mortal = families.mortal_every > 0
                && family % families.mortal_every == families.mortal_every - 1;
            let pulsing = round >= group.start_round
                && (round - group.start_round) % families.period == 0
                && !(mortal && round >= spec.rounds / 2);
            if !pulsing {
                continue;
            }
            let count = rng.range(u64::from(families.pulse.0), u64::from(families.pulse.1));
            for _ in 0..count {
                if round_posts.len() == spec.round_size {
                    break;
                }
                let author = rng.below(authors) as u32;
                pick_keywords(&group.words, families.keyword_prob, &mut rng, &mut words);
                round_posts.push(Post {
                    author,
                    time: 0,
                    words: words.clone(),
                });
            }
        }

        let (kmin, kmax) = spec.keywords_per_post;
        while round_posts.len() < spec.round_size {
            let author = rng.below(authors) as u32;
            let count = rng.range(kmin as u64, kmax.max(kmin) as u64);
            words.clear();
            for _ in 0..count {
                let w = zipf.sample(&mut rng);
                if !words.contains(&w) {
                    words.push(w);
                }
            }
            round_posts.push(Post {
                author,
                time: 0,
                words: words.clone(),
            });
        }

        rng.shuffle(&mut round_posts);
        for mut post in round_posts.drain(..) {
            post.time = posts.len() as u64;
            posts.push(post);
        }
    }

    Stream {
        posts,
        planted,
        word_count: next_word as usize,
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Stop words interleaved with the keywords; the text layer drops them.
/// None ends in a lone `s`: the text layer stems before it consults its
/// stop list, so `this` would pass through as the keyword `thi`.
const FILLERS: [&str; 16] = [
    "the", "a", "is", "of", "and", "to", "in", "on", "at", "for", "with", "by", "that", "it",
    "was", "are",
];

/// Renders `post` as one raw JSON line, `{"user","time","text"}`, the way
/// a deployment receives it: keywords in order, interleaved with stop
/// words, in mixed case, some as `#hashtags` or followed by punctuation,
/// with an occasional leading `@mention` and trailing URL.  `names` is the
/// spelling of every word index; `rng` only drives the decoration, so the
/// keywords a lossless text layer extracts are exactly `post.words`.
pub fn render_line(post: &Post, names: &[String], rng: &mut Rng, out: &mut String) {
    use std::fmt::Write as _;
    out.clear();
    write!(
        out,
        r#"{{"user":"u{}","time":{},"text":""#,
        post.author, post.time
    )
    .expect("writing to a String cannot fail");
    if rng.chance(0.15) {
        out.push('@');
        out.push_str(&names[rng.below(names.len() as u64) as usize]);
        out.push(' ');
    }
    for (i, &word) in post.words.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        if rng.chance(0.45) {
            out.push_str(FILLERS[rng.below(FILLERS.len() as u64) as usize]);
            out.push(' ');
        }
        let name = &names[word as usize];
        match rng.below(100) {
            0..=7 => {
                out.push_str(&name[..1].to_ascii_uppercase());
                out.push_str(&name[1..]);
            }
            8..=10 => out.push_str(&name.to_ascii_uppercase()),
            11..=14 => {
                out.push('#');
                out.push_str(name);
            }
            _ => out.push_str(name),
        }
        match rng.below(100) {
            0..=5 => out.push(','),
            6..=8 => out.push('!'),
            _ => {}
        }
    }
    if rng.chance(0.1) {
        write!(out, " http://t.co/{:06x}", rng.below(1 << 24))
            .expect("writing to a String cannot fail");
    }
    out.push_str("\"}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StreamSpec {
        StreamSpec {
            rounds: 60,
            round_size: 40,
            vocabulary: 500,
            zipf_exponent: 1.1,
            authors: 300,
            keywords_per_post: (3, 7),
            events: EventSpec {
                per_600_rounds: [40, 30, 20, 10],
                peak: (14, 30),
                duration: (6, 14),
                keyword_prob: 0.75,
            },
            families: FamilySpec {
                count: 12,
                size: 6,
                period: 10,
                mortal_every: 4,
                pulse: (5, 7),
                keyword_prob: 0.85,
            },
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = generate(&spec(), 7);
        let b = generate(&spec(), 7);
        let c = generate(&spec(), 8);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn message_count_is_exact_even_when_events_overfill_a_round() {
        let mut crowded = spec();
        crowded.events.per_600_rounds = [400, 400, 0, 0];
        for spec in [spec(), crowded] {
            let stream = generate(&spec, 3);
            assert_eq!(stream.posts.len(), spec.rounds * spec.round_size);
            for (i, post) in stream.posts.iter().enumerate() {
                assert_eq!(post.time, i as u64);
                assert!(!post.words.is_empty());
                let mut sorted = post.words.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), post.words.len(), "repeated word in a post");
                assert!(post.words.iter().all(|&w| (w as usize) < stream.word_count));
                assert!(post.author < spec.authors);
            }
        }
    }

    #[test]
    fn planted_counts_follow_the_density_and_words_are_fresh() {
        let stream = generate(&spec(), 1);
        // 60 rounds is a tenth of 600.
        let kinds = |k: Kind| stream.planted[..10].iter().filter(|p| p.kind == k).count();
        assert_eq!(stream.planted.len(), 4 + 3 + 2 + 1 + 12);
        assert_eq!(kinds(Kind::Headline), 4);
        assert_eq!(kinds(Kind::Spurious), 1);
        let mut all: Vec<u32> = stream
            .planted
            .iter()
            .flat_map(|p| p.words.clone())
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "planted words overlap");
        assert!(all.iter().all(|&w| w as usize >= spec().vocabulary));
    }

    #[test]
    fn mortal_families_stop_halfway_and_others_keep_pulsing() {
        let spec = spec();
        let stream = generate(&spec, 5);
        let families = &stream.planted[10..];
        let last_seen = |group: &Planted| {
            stream
                .posts
                .iter()
                .rev()
                .find(|p| p.words.iter().any(|w| group.words.contains(w)))
                .map(|p| p.time as usize / spec.round_size)
                .expect("every family pulses")
        };
        assert!(
            last_seen(&families[3]) < spec.rounds / 2,
            "family 3 is mortal"
        );
        assert!(last_seen(&families[0]) >= spec.rounds - spec.families.period);
    }

    #[test]
    fn word_names_are_distinct() {
        let mut names: Vec<String> = (0..30_000).map(word_name).collect();
        assert_eq!(names[0], "babak");
        assert!(names[5].ends_with("ing"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30_000);
    }

    #[test]
    fn rendering_is_deterministic_json_with_the_keywords_in_order() {
        let stream = generate(&spec(), 2);
        let names: Vec<String> = (0..stream.word_count as u32).map(word_name).collect();
        let render_all = || {
            let mut rng = Rng::new(11);
            let mut line = String::new();
            stream
                .posts
                .iter()
                .map(|p| {
                    render_line(p, &names, &mut rng, &mut line);
                    line.clone()
                })
                .collect::<Vec<_>>()
        };
        let lines = render_all();
        assert_eq!(lines, render_all());
        for (post, line) in stream.posts.iter().zip(&lines) {
            assert!(line.starts_with(&format!(
                r#"{{"user":"u{}","time":{},"#,
                post.author, post.time
            )));
            let lower = line.to_ascii_lowercase();
            let mut from = 0;
            for &w in &post.words {
                let at = lower[from..]
                    .find(&names[w as usize])
                    .expect("keyword missing or out of order");
                from += at + names[w as usize].len();
            }
        }
    }

    #[test]
    fn rng_is_uniform_enough_and_ranges_are_inclusive() {
        let mut rng = Rng::new(42);
        let mut seen = [0usize; 6];
        for _ in 0..6_000 {
            seen[rng.range(2, 7) as usize - 2] += 1;
        }
        assert!(seen.iter().all(|&n| n > 800), "{seen:?}");
        assert!((0..1000).all(|_| rng.unit() < 1.0));
    }
}
