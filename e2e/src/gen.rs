//! Statement streams: every statement the benchmark sends is drawn here from
//! the run's seed, so the engine receives nothing but generated inputs.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The regions `sedna_workload::auction` spreads its items over.
pub const REGIONS: [&str; 5] = ["africa", "asia", "europe", "namerica", "samerica"];

/// `q_flwor` thresholds on `current` (which lies in 10..500), so between a
/// fiftieth and a fifth of the open auctions qualify.
pub const FLWOR_THRESHOLDS: [u16; 10] = [400, 410, 420, 430, 440, 450, 460, 470, 480, 490];

/// `q_path` thresholds on `quantity` (which lies in 1..10).
pub const PATH_THRESHOLDS: std::ops::RangeInclusive<u8> = 1..=8;

/// A statement class: one row of the class table in the README.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    QPoint,
    QPath,
    QAgg,
    QFlwor,
    QScan,
    UBid,
    UPrice,
    UClose,
    UPerson,
}

impl Class {
    pub const ALL: [Class; 9] = [
        Class::QPoint,
        Class::QPath,
        Class::QAgg,
        Class::QFlwor,
        Class::QScan,
        Class::UBid,
        Class::UPrice,
        Class::UClose,
        Class::UPerson,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::QPoint => "q_point",
            Class::QPath => "q_path",
            Class::QAgg => "q_agg",
            Class::QFlwor => "q_flwor",
            Class::QScan => "q_scan",
            Class::UBid => "u_bid",
            Class::UPrice => "u_price",
            Class::UClose => "u_close",
            Class::UPerson => "u_person",
        }
    }

    pub fn is_read(self) -> bool {
        matches!(
            self,
            Class::QPoint | Class::QPath | Class::QAgg | Class::QFlwor | Class::QScan
        )
    }
}

/// What a statement asks for, in the terms the oracle answers in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Key {
    /// `person{k}`'s name.
    Point(u32),
    /// Names of a region's items with `quantity > n`.
    Path {
        region: u8,
        n: u8,
    },
    AggAvg,
    AggCount,
    /// Open auctions with `current > n`, highest first.
    Flwor(u16),
    Scan,
    /// 1-based position of the open auction, as in the statement.
    Bid {
        auction: u32,
    },
    Price {
        auction: u32,
        value: u32,
    },
    Close {
        auction: u32,
    },
    Person {
        id: String,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stmt {
    pub class: Class,
    pub key: Key,
    pub text: String,
}

/// What a stream needs to know of a document to draw valid parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shape {
    pub persons: u32,
    /// Bidders of each open auction as loaded, in document order.
    pub bidders: Vec<u32>,
}

/// A weighted choice of classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// The read mix of `read_embedded` and `read_wire`.
    Read,
    /// The reader of `mixed_cold`: uniform keys over more pages than frames.
    ColdRead,
    /// The update mix of `update_commit` and the writer of `mixed_cold`.
    Update,
    /// `ColdRead` and `Update` in equal parts, for the single client of the
    /// traced `mixed_cold` run.
    ColdBoth,
}

impl Mix {
    pub fn has(self, class: Class) -> bool {
        self.weights().iter().any(|(c, _)| *c == class)
    }

    pub fn weights(self) -> &'static [(Class, u32)] {
        match self {
            Mix::Read => &[
                (Class::QPoint, 40),
                (Class::QPath, 25),
                (Class::QAgg, 15),
                (Class::QFlwor, 10),
                (Class::QScan, 10),
            ],
            Mix::ColdRead => &[(Class::QPoint, 70), (Class::QPath, 30)],
            Mix::Update => &[
                (Class::UBid, 40),
                (Class::UPrice, 35),
                (Class::UClose, 15),
                (Class::UPerson, 10),
            ],
            Mix::ColdBoth => &[
                (Class::QPoint, 70),
                (Class::QPath, 30),
                (Class::UBid, 40),
                (Class::UPrice, 35),
                (Class::UClose, 15),
                (Class::UPerson, 10),
            ],
        }
    }
}

/// One client's endless statement stream.
///
/// The stream follows the bidders its own statements add and remove, so
/// that `u_close` only names an auction that has one: deleting from an empty
/// target is an error in this engine, and no statement of a run may fail. It
/// therefore assumes that it is the document's only writer and that every
/// statement it hands out is executed.
pub struct Stream {
    rng: SmallRng,
    /// Draws think times only, so that pacing does not change which
    /// statements a seed gives.
    pace_rng: SmallRng,
    mix: Mix,
    doc: String,
    persons: u32,
    bidders: Vec<u32>,
    client: u32,
    persons_added: u32,
}

impl Stream {
    /// The stream of `client` under the run's `seed`: each client draws from
    /// its own sub-seed, so adding a client does not change the others.
    pub fn new(seed: u64, client: u32, mix: Mix, doc: &str, shape: &Shape) -> Stream {
        let sub_seed = seed ^ (u64::from(client) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Stream {
            rng: SmallRng::seed_from_u64(sub_seed),
            pace_rng: SmallRng::seed_from_u64(!sub_seed),
            mix,
            doc: doc.to_string(),
            persons: shape.persons,
            bidders: shape.bidders.clone(),
            client,
            persons_added: 0,
        }
    }

    /// A think time between half of `cycle` and one and a half.
    ///
    /// Two committers on one fixed cycle keep whatever phase they started
    /// with: they collide on every commit or on none, and which it is changes
    /// from run to run. Jittered, every run sees the same share of both.
    pub fn think_time(&mut self, cycle: Duration) -> Duration {
        cycle.mul_f64(0.5 + self.pace_rng.gen_range(0..1_000u32) as f64 / 1_000.0)
    }

    fn pick_class(&mut self) -> Class {
        let weights = self.mix.weights();
        let total: u32 = weights.iter().map(|(_, w)| w).sum();
        let mut roll = self.rng.gen_range(0..total);
        for &(class, w) in weights {
            if roll < w {
                return class;
            }
            roll -= w;
        }
        unreachable!("roll is below the total weight")
    }

    /// A 1-based auction with a bidder, by rejection; `None` if the draws
    /// found none, which takes a document whose auctions are nearly all idle.
    fn auction_with_bidder(&mut self) -> Option<u32> {
        (0..64)
            .map(|_| self.rng.gen_range(0..self.bidders.len()))
            .find(|&a| self.bidders[a] > 0)
            .map(|a| a as u32 + 1)
    }

    pub fn next_stmt(&mut self) -> Stmt {
        let mut class = self.pick_class();
        let mut closing = None;
        if class == Class::UClose {
            closing = self.auction_with_bidder();
            if closing.is_none() {
                class = Class::UBid;
            }
        }
        let doc = &self.doc;
        let rng = &mut self.rng;
        let auctions = self.bidders.len() as u32;
        let auction = |rng: &mut SmallRng| rng.gen_range(1..=auctions);
        let (key, text) = match class {
            Class::QPoint => {
                let k = rng.gen_range(0..self.persons);
                (
                    Key::Point(k),
                    format!("doc('{doc}')/site/people/person[@id = \"person{k}\"]/name/text()"),
                )
            }
            Class::QPath => {
                let region = rng.gen_range(0..REGIONS.len() as u8);
                let n = rng.gen_range(PATH_THRESHOLDS);
                (
                    Key::Path { region, n },
                    format!(
                        "doc('{doc}')/site/regions/{}/item[quantity > {n}]/name/text()",
                        REGIONS[region as usize]
                    ),
                )
            }
            Class::QAgg => {
                // Two thirds averages: by latency the read mix is q_point
                // (40 %), the counts (5 %), the averages (10 %), then the rest,
                // so its median sits in the middle of the averages and not on
                // the gap between two kinds of statement, where it would jump.
                if rng.gen_range(0..3) < 2 {
                    (
                        Key::AggAvg,
                        format!("round(avg(doc('{doc}')//open_auction/current))"),
                    )
                } else {
                    (Key::AggCount, format!("count(doc('{doc}')//item/name)"))
                }
            }
            Class::QFlwor => {
                let n = FLWOR_THRESHOLDS[rng.gen_range(0..FLWOR_THRESHOLDS.len())];
                (
                    Key::Flwor(n),
                    format!(
                        "for $a in doc('{doc}')//open_auction where number($a/current) > {n} \
                         order by number($a/current) descending \
                         return <hot id=\"{{string($a/@id)}}\">{{string($a/current)}}</hot>"
                    ),
                )
            }
            Class::QScan => (
                Key::Scan,
                format!("doc('{doc}')//item/description/text/text()"),
            ),
            Class::UBid => {
                let a = auction(rng);
                let person = rng.gen_range(0..self.persons);
                let increase = rng.gen_range(1..20);
                self.bidders[a as usize - 1] += 1;
                (
                    Key::Bid { auction: a },
                    format!(
                        "UPDATE insert <bidder><personref person=\"person{person}\"/>\
                         <increase>{increase}</increase></bidder> \
                         into doc('{doc}')/site/open_auctions/open_auction[{a}]"
                    ),
                )
            }
            Class::UPrice => {
                let a = auction(rng);
                let value = rng.gen_range(10..500);
                (
                    Key::Price { auction: a, value },
                    format!(
                        "UPDATE replace value of \
                         doc('{doc}')/site/open_auctions/open_auction[{a}]/current with '{value}'"
                    ),
                )
            }
            Class::UClose => {
                let a = closing.expect("a closing auction was drawn above");
                self.bidders[a as usize - 1] -= 1;
                (
                    Key::Close { auction: a },
                    format!(
                        "UPDATE delete doc('{doc}')/site/open_auctions/open_auction[{a}]/bidder[1]"
                    ),
                )
            }
            Class::UPerson => {
                let seq = self.persons_added;
                self.persons_added += 1;
                let id = format!("personN{}x{seq}", self.client);
                let text = format!(
                    "UPDATE insert <person id=\"{id}\"><name>New Person {seq}</name>\
                     <emailaddress>n{seq}@example.org</emailaddress><country>US</country>\
                     </person> into doc('{doc}')/site/people"
                );
                (Key::Person { id }, text)
            }
        };
        Stmt { class, key, text }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            persons: 50,
            bidders: (0..25).map(|a| a % 3).collect(),
        }
    }

    fn take(seed: u64, client: u32, mix: Mix, n: usize) -> Vec<Stmt> {
        let mut s = Stream::new(seed, client, mix, "site", &shape());
        (0..n).map(|_| s.next_stmt()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_statements() {
        for mix in [Mix::Read, Mix::ColdRead, Mix::Update, Mix::ColdBoth] {
            assert_eq!(take(7, 0, mix, 300), take(7, 0, mix, 300));
            assert_ne!(take(7, 0, mix, 300), take(8, 0, mix, 300));
            assert_ne!(take(7, 0, mix, 300), take(7, 1, mix, 300));
        }
    }

    #[test]
    fn mixes_follow_their_weights() {
        let n = 20_000;
        for mix in [Mix::Read, Mix::ColdRead, Mix::Update, Mix::ColdBoth] {
            let stmts = take(3, 0, mix, n);
            let total: u32 = mix.weights().iter().map(|(_, w)| w).sum();
            for &(class, w) in mix.weights() {
                let share = stmts.iter().filter(|s| s.class == class).count() as f64 / n as f64;
                let want = f64::from(w) / f64::from(total);
                assert!((share - want).abs() < 0.02, "{class:?}: {share} vs {want}");
            }
        }
    }

    #[test]
    fn closes_only_name_auctions_with_a_bidder() {
        let mut bidders = shape().bidders;
        for stmt in take(11, 0, Mix::Update, 5_000) {
            match stmt.key {
                Key::Bid { auction } => bidders[auction as usize - 1] += 1,
                Key::Close { auction } => {
                    assert!(bidders[auction as usize - 1] > 0, "{}", stmt.text);
                    bidders[auction as usize - 1] -= 1;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn inserted_person_ids_are_unique_across_clients() {
        let ids = |client| -> Vec<String> {
            take(1, client, Mix::Update, 500)
                .into_iter()
                .filter_map(|s| match s.key {
                    Key::Person { id } => Some(id),
                    _ => None,
                })
                .collect()
        };
        let mut all = ids(0);
        all.extend(ids(1));
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
