//! Differential test of the document build path: a document parsed from
//! the whole text (whose build adopts the tokenizer's string pool) must
//! equal, node by node, one built from the same text pushed in chunks
//! through a `PushTokenizer` (whose strings the builder interns itself).

use std::sync::Arc;
use xqr_store::{Document, DocumentBuilder, NodeId};
use xqr_tokenstream::PushTokenizer;
use xqr_xdm::NamePool;

/// Small inputs with every construct the build path treats specially.
const EDGE_CASES: &[&str] = &[
    "<a>x\r\ny\rz</a>",
    "<a b=\"x\r\ny\tz\"/>",
    "<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;&#x65e5;</a>",
    "<a k=\"&lt;v&amp;&#x41;\" j='&quot;'/>",
    "<a>x<![CDATA[y]]>z</a>",
    "<a><![CDATA[<x>]]><![CDATA[\r\n]]>&amp;t</a>",
    "<a>x<!--c-->y<?p d?>z</a>",
    r#"<r xmlns="urn:d" xmlns:p="urn:p"><p:b p:k="1" k="2"><c xmlns=""/></p:b></r>"#,
    r#"<p:r xmlns:p="urn:1"><p:r xmlns:p="urn:2">t</p:r></p:r>"#,
    "<?xml version=\"1.0\"?>\n<!-- pre -->\n<a><!--\r\nin--><?t\r\n d?></a>\n<!-- post --><?p q?>",
    "<s>The great <title>P</title> Even facts</s>",
    "<données champ=\"é\">日本語</données>",
    "<a>]x]]y</a>",
];

fn whole(xml: &str, names: &Arc<NamePool>) -> Arc<Document> {
    Document::parse(xml, names.clone()).unwrap_or_else(|e| panic!("{xml:?}: {e}"))
}

/// Build a document from `chunks` pushed through a tokenizer, handing
/// every token to the builder as soon as it completes.
fn pushed<'c>(chunks: impl IntoIterator<Item = &'c [u8]>, names: &Arc<NamePool>) -> Arc<Document> {
    let mut tokenizer = PushTokenizer::new(names.clone());
    let mut b = DocumentBuilder::new(names.clone());
    let drain = |t: &mut PushTokenizer, b: &mut DocumentBuilder| {
        while let Some(tok) = t.poll_token().unwrap() {
            b.token(tok, t);
        }
    };
    for chunk in chunks {
        tokenizer.feed(chunk).unwrap();
        drain(&mut tokenizer, &mut b);
    }
    tokenizer.finish().unwrap();
    drain(&mut tokenizer, &mut b);
    assert!(tokenizer.is_drained());
    b.finish_from(&mut tokenizer).unwrap()
}

fn assert_same(a: &Document, b: &Document, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: node count");
    for i in 0..a.len() as u32 {
        let n = NodeId(i);
        let at = format!("{what}: node {i}");
        assert_eq!(a.kind(n), b.kind(n), "{at} kind");
        let (na, nb) = (a.name(n), b.name(n));
        assert_eq!(na, nb, "{at} name");
        assert_eq!(
            na.as_ref().and_then(|q| q.prefix().map(str::to_string)),
            nb.as_ref().and_then(|q| q.prefix().map(str::to_string)),
            "{at} prefix"
        );
        assert_eq!(a.value(n), b.value(n), "{at} value");
        assert_eq!(a.string_value(n), b.string_value(n), "{at} string value");
        assert_eq!(a.parent(n), b.parent(n), "{at} parent");
        assert_eq!(a.first_child(n), b.first_child(n), "{at} first child");
        assert_eq!(a.next_sibling(n), b.next_sibling(n), "{at} next sibling");
        assert_eq!(a.end(n), b.end(n), "{at} end");
        assert_eq!(a.level(n), b.level(n), "{at} level");
    }
    assert_eq!(
        a.serialize_node(a.root()),
        b.serialize_node(b.root()),
        "{what}"
    );
}

#[test]
fn edge_cases_build_alike_at_every_split() {
    let names = Arc::new(NamePool::new());
    for xml in EDGE_CASES {
        let want = whole(xml, &names);
        let bytes = xml.as_bytes();
        for cut in 0..=bytes.len() {
            let got = pushed([&bytes[..cut], &bytes[cut..]], &names);
            assert_same(&want, &got, &format!("{xml:?} split at {cut}"));
        }
        let got = pushed(bytes.chunks(1), &names);
        assert_same(&want, &got, &format!("{xml:?} in 1-byte chunks"));
    }
}

#[test]
fn generated_corpora_build_alike_in_chunks() {
    let corpora = [
        xqr_xmlgen::bibliography(3, 40),
        xqr_xmlgen::auction_site(&xqr_xmlgen::XmarkConfig::scaled(30)),
        xqr_xmlgen::trading_partners(5, 20),
        xqr_xmlgen::random_tree(&xqr_xmlgen::RandomTreeConfig {
            seed: 11,
            nodes: 400,
            p_attribute: 0.3,
            ..Default::default()
        }),
    ];
    let names = Arc::new(NamePool::new());
    for (i, xml) in corpora.iter().enumerate() {
        let want = whole(xml, &names);
        for chunk in [1, 7, 64, 4096] {
            let got = pushed(xml.as_bytes().chunks(chunk), &names);
            assert_same(&want, &got, &format!("corpus {i}, {chunk}-byte chunks"));
        }
    }
}
