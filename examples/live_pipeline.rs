//! Live pipeline: a producer thread streams messages over a channel while a
//! consumer thread runs the detector and publishes the current top events
//! into shared state — the shape of a real deployment where the ingester
//! and the dashboard are separate components.
//!
//! Demonstrates that the detector is a plain single-writer state machine
//! that composes naturally with `std::sync::mpsc` channels and `RwLock`
//! shared state; the algorithms themselves need no global locking
//! (Section 4.1's locality argument).
//!
//! Run with: `cargo run -p dengraph-examples --release --example live_pipeline`

use std::sync::mpsc;
use std::sync::{Arc, RwLock};
use std::thread;

use dengraph_core::{DetectorBuilder, DetectorConfig};
use dengraph_stream::generator::profiles::{es_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator};

/// What the "dashboard" sees: the latest quantum's top events as strings.
#[derive(Debug, Default, Clone)]
struct Dashboard {
    quantum: u64,
    top_events: Vec<String>,
}

fn main() {
    let trace = StreamGenerator::new(es_profile(99, ProfileScale::Small)).generate();
    let interner = trace.interner.clone();
    println!(
        "streaming {} messages through a producer/consumer pipeline",
        trace.messages.len()
    );

    let (tx, rx) = mpsc::sync_channel::<Message>(1024);
    let dashboard = Arc::new(RwLock::new(Dashboard::default()));

    // Producer: replays the trace into the channel.
    let producer = thread::spawn(move || {
        for message in trace.messages {
            if tx.send(message).is_err() {
                break;
            }
        }
        // Dropping tx closes the channel and ends the consumer loop.
    });

    // Consumer: runs the detector and publishes the top events.
    let consumer_dashboard = Arc::clone(&dashboard);
    let consumer = thread::spawn(move || {
        let config = DetectorConfig::nominal().with_window_quanta(20);
        let mut detector = DetectorBuilder::from_config(config)
            .interner(interner.clone())
            .build()
            .expect("valid config");
        let mut processed = 0u64;
        for message in rx.iter() {
            processed += 1;
            if let Some(summary) = detector.push_message(message) {
                let top_events = summary
                    .events
                    .iter()
                    .take(3)
                    .map(|e| {
                        let words: Vec<&str> = e
                            .keywords
                            .iter()
                            .filter_map(|k| interner.resolve(*k))
                            .collect();
                        format!("[rank {:6.1}] {}", e.rank, words.join(" "))
                    })
                    .collect();
                *consumer_dashboard.write().expect("dashboard lock poisoned") = Dashboard {
                    quantum: summary.quantum,
                    top_events,
                };
            }
        }
        detector.flush();
        (detector.event_records().len(), processed)
    });

    producer.join().expect("producer thread panicked");
    let (events, processed) = consumer.join().expect("consumer thread panicked");

    let final_view = dashboard.read().expect("dashboard lock poisoned").clone();
    println!(
        "\n== final dashboard state (quantum {}) ==",
        final_view.quantum
    );
    for line in &final_view.top_events {
        println!("  {line}");
    }
    println!("\nprocessed {processed} messages, discovered {events} events over the run");
}
