//! Expected answers, worked out from the generated XML with `sedna_xml`'s
//! parser and a walk over its DOM. Nothing here touches the storage or query
//! crates, so a wrong reply cannot agree with its own mistake.

use sedna_xml::Node;

use crate::gen::{Key, Shape, PATH_THRESHOLDS, REGIONS};
use crate::Error;

/// FNV-1a over the items of a reply, each closed by a byte no item contains.
pub fn digest(items: &[String]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for item in items {
        item.bytes().for_each(&mut eat);
        eat(0xFF);
    }
    h
}

fn child<'a>(node: &'a Node, name: &'a str) -> Option<&'a Node> {
    children(node, name).next()
}

fn children<'a>(node: &'a Node, name: &'a str) -> impl Iterator<Item = &'a Node> {
    node.children()
        .iter()
        .filter(move |c| c.name().is_some_and(|q| q.local == name))
}

fn attr<'a>(node: &'a Node, name: &str) -> Option<&'a str> {
    match node {
        Node::Element { attributes, .. } => attributes
            .iter()
            .find(|a| a.name.local == name)
            .map(|a| a.value.as_str()),
        _ => None,
    }
}

fn need<'a>(node: &'a Node, name: &'a str) -> Result<&'a Node, Error> {
    child(node, name).ok_or_else(|| format!("generated document has no <{name}> here").into())
}

/// Highest `current` first; equal keys by item text.
fn canonical_hot_order(a: &(u32, String), b: &(u32, String)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1))
}

struct Auction {
    id: String,
    current: u32,
    bidders: u32,
}

/// The answers to every read statement a stream can draw, and the starting
/// state of the update model.
pub struct Oracle {
    person_names: Vec<String>,
    /// `[region][n - 1]`: names of the region's items with `quantity > n`.
    path: Vec<Vec<Vec<String>>>,
    item_names: u64,
    scan: Vec<String>,
    auctions: Vec<Auction>,
}

impl Oracle {
    pub fn build(xml: &str) -> Result<Oracle, Error> {
        let doc = sedna_xml::parse(xml).map_err(|e| format!("generated XML: {e}"))?;
        let site = doc.root();

        let mut person_names = Vec::new();
        for (k, p) in children(need(site, "people")?, "person").enumerate() {
            if attr(p, "id") != Some(format!("person{k}").as_str()) {
                return Err(format!("person {k} is not labelled person{k}").into());
            }
            person_names.push(need(p, "name")?.string_value());
        }

        let regions = need(site, "regions")?;
        let mut path = Vec::new();
        let mut scan = Vec::new();
        let mut item_names = 0;
        for region in REGIONS {
            let mut items: Vec<(u32, String)> = Vec::new();
            for item in children(need(regions, region)?, "item") {
                let quantity = need(item, "quantity")?.string_value();
                let quantity = quantity
                    .parse()
                    .map_err(|_| format!("quantity '{quantity}' is not a number"))?;
                for name in children(item, "name") {
                    items.push((quantity, name.string_value()));
                    item_names += 1;
                }
                for description in children(item, "description") {
                    scan.extend(children(description, "text").map(Node::string_value));
                }
            }
            path.push(
                PATH_THRESHOLDS
                    .map(|n| {
                        items
                            .iter()
                            .filter(|(q, _)| *q > u32::from(n))
                            .map(|(_, name)| name.clone())
                            .collect()
                    })
                    .collect(),
            );
        }

        let mut auctions = Vec::new();
        for a in children(need(site, "open_auctions")?, "open_auction") {
            let current = need(a, "current")?.string_value();
            auctions.push(Auction {
                id: attr(a, "id").unwrap_or_default().to_string(),
                current: current
                    .parse()
                    .map_err(|_| format!("current '{current}' is not a number"))?,
                bidders: children(a, "bidder").count() as u32,
            });
        }
        if person_names.is_empty() || auctions.is_empty() {
            return Err("generated document has no people or no open auctions".into());
        }
        Ok(Oracle {
            person_names,
            path,
            item_names,
            scan,
            auctions,
        })
    }

    pub fn shape(&self) -> Shape {
        Shape {
            persons: self.person_names.len() as u32,
            bidders: self.auctions.iter().map(|a| a.bidders).collect(),
        }
    }

    /// The reply a read statement must produce on the document as loaded.
    /// `q_flwor` comes back in canonical order, see [`Oracle::check`].
    pub fn expected(&self, key: &Key) -> Result<Vec<String>, Error> {
        Ok(match key {
            Key::Point(k) => vec![self.person_names[*k as usize].clone()],
            Key::Path { region, n } => {
                self.path[*region as usize][(*n - PATH_THRESHOLDS.start()) as usize].clone()
            }
            Key::AggAvg => {
                let sum: u64 = self.auctions.iter().map(|a| u64::from(a.current)).sum();
                let avg = sum as f64 / self.auctions.len() as f64;
                // XQuery `round` takes halves up.
                vec![format!("{}", (avg + 0.5).floor() as i64)]
            }
            Key::AggCount => vec![self.item_names.to_string()],
            Key::Flwor(n) => {
                let mut hot: Vec<(u32, String)> = self
                    .auctions
                    .iter()
                    .filter(|a| a.current > u32::from(*n))
                    .map(|a| {
                        let item = format!("<hot id=\"{}\">{}</hot>", a.id, a.current);
                        (a.current, item)
                    })
                    .collect();
                hot.sort_by(canonical_hot_order);
                hot.into_iter().map(|(_, item)| item).collect()
            }
            Key::Scan => self.scan.clone(),
            Key::Bid { .. } | Key::Price { .. } | Key::Close { .. } | Key::Person { .. } => {
                return Err(format!("{key:?} is an update: it has a model, not an answer").into())
            }
        })
    }

    /// Checks a read reply against the document as loaded.
    ///
    /// `order by` leaves the order of equal keys to the implementation, so a
    /// `q_flwor` reply must be non-increasing in `current` and, once equal
    /// keys are put in `id` order, equal to the expected list.
    pub fn check(&self, key: &Key, reply: &[String]) -> Result<(), Error> {
        let expected = self.expected(key)?;
        let matches = if let Key::Flwor(_) = key {
            let mut keyed = Vec::with_capacity(reply.len());
            for item in reply {
                let current: Option<u32> = item
                    .strip_suffix("</hot>")
                    .and_then(|s| s.rsplit_once('>'))
                    .and_then(|(_, v)| v.parse().ok());
                match current {
                    Some(v) => keyed.push((v, item.clone())),
                    None => return Err(format!("{key:?}: malformed item {item:?}").into()),
                }
            }
            if keyed.windows(2).any(|w| w[0].0 < w[1].0) {
                return Err(format!("{key:?}: reply is not in descending order").into());
            }
            keyed.sort_by(canonical_hot_order);
            keyed.iter().map(|(_, item)| item).eq(expected.iter())
        } else {
            reply == expected
        };
        if matches {
            return Ok(());
        }
        let head = |v: &[String]| v.iter().take(3).cloned().collect::<Vec<_>>();
        Err(format!(
            "{key:?}: expected {} items starting {:?}, got {} starting {:?}",
            expected.len(),
            head(&expected),
            reply.len(),
            head(reply)
        )
        .into())
    }

    /// The state the update statements start from.
    pub fn model(&self) -> UpdateModel {
        UpdateModel {
            bidders: self.auctions.iter().map(|a| a.bidders).collect(),
            current: self.auctions.iter().map(|a| a.current).collect(),
            persons_added: Vec::new(),
        }
    }
}

/// What one committer's acknowledged updates must have left in its document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateModel {
    bidders: Vec<u32>,
    current: Vec<u32>,
    persons_added: Vec<String>,
}

impl UpdateModel {
    /// Applies an acknowledged update and returns the node count its reply
    /// must have carried.
    pub fn apply(&mut self, key: &Key) -> Result<u64, Error> {
        Ok(match key {
            Key::Bid { auction } => {
                self.bidders[*auction as usize - 1] += 1;
                1
            }
            Key::Price { auction, value } => {
                self.current[*auction as usize - 1] = *value;
                1
            }
            Key::Close { auction } => {
                let bidders = &mut self.bidders[*auction as usize - 1];
                *bidders = bidders
                    .checked_sub(1)
                    .ok_or_else(|| format!("{key:?}: the auction has no bidder to delete"))?;
                1
            }
            Key::Person { id } => {
                self.persons_added.push(id.clone());
                1
            }
            _ => return Err(format!("{key:?} is a read: it has an answer, not a model").into()),
        })
    }

    /// Checks the model against the document through `query`, which runs one
    /// query and returns its items.
    pub fn verify(
        &self,
        doc: &str,
        mut query: impl FnMut(&str) -> Result<Vec<String>, Error>,
    ) -> Result<(), Error> {
        let current = query(&format!(
            "doc('{doc}')/site/open_auctions/open_auction/current/text()"
        ))?;
        let want: Vec<String> = self.current.iter().map(u32::to_string).collect();
        if current != want {
            let at = current.iter().zip(&want).position(|(a, b)| a != b);
            return Err(format!(
                "{doc}: current values differ from the acknowledged updates (first at {at:?}, \
                 {} stored, {} expected)",
                current.len(),
                want.len()
            )
            .into());
        }
        let bidders = query(&format!(
            "for $a in doc('{doc}')/site/open_auctions/open_auction return count($a/bidder)"
        ))?;
        let want: Vec<String> = self.bidders.iter().map(u32::to_string).collect();
        if bidders != want {
            let at = bidders.iter().zip(&want).position(|(a, b)| a != b);
            return Err(format!(
                "{doc}: bidder counts differ from the acknowledged updates (first at {at:?})"
            )
            .into());
        }
        for id in &self.persons_added {
            let found = query(&format!(
                "count(doc('{doc}')/site/people/person[@id = \"{id}\"])"
            ))?;
            if found != ["1"] {
                return Err(format!(
                    "{doc}: acknowledged insert of {id} is stored {found:?} times"
                )
                .into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::FLWOR_THRESHOLDS;

    fn oracle() -> Oracle {
        Oracle::build(&sedna_workload::auction(100, 5)).unwrap()
    }

    #[test]
    fn shape_matches_the_generator() {
        let shape = oracle().shape();
        assert_eq!((shape.persons, shape.bidders.len()), (50, 25));
    }

    #[test]
    fn flwor_check_accepts_any_order_of_equal_keys_only() {
        let o = oracle();
        let key = Key::Flwor(FLWOR_THRESHOLDS[0]);
        let expected = o.expected(&key).unwrap();
        assert!(expected.len() >= 2, "seed gives too few hot auctions");
        o.check(&key, &expected).unwrap();
        let mut reversed = expected.clone();
        reversed.reverse();
        assert!(o.check(&key, &reversed).is_err());
        assert!(o.check(&key, &expected[1..]).is_err());
    }

    #[test]
    fn model_refuses_to_delete_a_bidder_that_is_not_there() {
        let o = oracle();
        let mut m = o.model();
        let auction = 1 + m
            .bidders
            .iter()
            .position(|&b| b == 0)
            .expect("an idle auction") as u32;
        assert!(m.apply(&Key::Close { auction }).is_err());
        assert_eq!(m.apply(&Key::Bid { auction }).unwrap(), 1);
        assert_eq!(m.apply(&Key::Close { auction }).unwrap(), 1);
        assert_eq!(m, o.model());
    }

    #[test]
    fn digest_separates_item_boundaries() {
        let a = digest(&["ab".into(), "c".into()]);
        let b = digest(&["a".into(), "bc".into()]);
        assert_ne!(a, b);
        assert_eq!(a, digest(&["ab".into(), "c".into()]));
    }
}
