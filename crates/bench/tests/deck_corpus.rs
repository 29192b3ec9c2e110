//! Parser corpus: a fixed set of decks whose parse results are pinned.
//!
//! Each well-formed deck's `ParsedDeck` is reduced to its `Debug` form
//! and digested; each malformed deck's error text is compared verbatim,
//! line number included. The corpus covers `write_deck` output of the
//! FIG3, FIG8 and shared-detector circuits, mixed-case cards, `+`
//! continuations, every comment style, nested subcircuits, every source
//! wave, every BJT and diode model parameter and every analysis card.

use cml_bench::experiments::common::fig3_circuit;
use cml_bench::experiments::fig7::detector_circuit;
use cml_bench::experiments::manifest::fnv64;
use cml_cells::CmlProcess;
use cml_dft::sharing::SharedDetector;
use cml_dft::{DetectorLoad, Variant3};
use spicier::spice::{parse_deck, write_deck, ParsedDeck};

/// The `Debug` form of a parsed deck without the netlist's two name
/// indexes: those are `HashMap`s, whose iteration order changes from one
/// process to the next, and each is the inverse of an ordered field
/// (`node_names`, `elements`) that stays in the digest.
fn canonical(deck: &ParsedDeck) -> String {
    let mut text = format!("{deck:?}");
    for field in ["node_by_name: {", "element_by_name: {"] {
        let start = text.find(field).expect("netlist field");
        let len = text[start..].find("}, ").expect("end of map") + 3;
        text.replace_range(start..start + len, "");
    }
    text
}

/// Inserts `cards` before the closing `.end` of a `write_deck` deck.
fn with_cards(deck: &str, cards: &str) -> String {
    let body = deck
        .strip_suffix(".end\n")
        .expect("write_deck ends in .end");
    format!("{body}{cards}.end\n")
}

const MIXED_CASE: &str = "\
mixed case, comments and continuations
* a full-line comment
VCC vcc 0 DC 3.3 ; trailing semicolon comment
vin in 0 pulse(0 1 0 1n 1n 4n 10n) $ dollar comment
VIN2 in2 0 PULSE(0,1,0,1N,1N,4N,10N)
R1 vcc out 1MEG
r2 out 0 1meg
R3 in mid 1E3
R4 mid
+ 0
+ 2.2K
C1 mid 0 10P
l1 mid tap 1uH
R5 tap 0 50
Q1 out in 0 npnfast
q2 out in2 0 NPNFAST
QPNP 0 mid vcc pmod
D1 out 0 dmod
.MODEL NPNFAST NPN (IS=3e-19 BF=100)
.model pmod pnp (is=1e-17 bf=40)
.Model DMOD d IS = 1e-15 N = 1.1 CJ=2p
.Model Dspaced D (IS = 1e-15 N = 1.1)
  R6   out   0   5k   ; indented card
.OP
.Tran 10p 20N
.end
";

const NESTED: &str = "\
nested subcircuits
.subckt DIV in out
R1 in out 1k
R2 out 0 1k
.ends
.SUBCKT quarter a b
XA a mid DIV
XB mid b div
C1 mid 0 1p
.ENDS
.subckt TOP p q unused
X1 p q QUARTER
Q1 q p 0 NPNX
.model NPNX NPN (BF=60)
.ends
V1 top 0 4.0
X1 top half DIV
X2 top quarter QUARTER
XT top deep spare TOP
.op
.end
";

const WAVES: &str = "\
every source wave
V1 a 0 1.5
V2 b 0 DC 2
V3 c 0 dc 0.5m
V4 d 0 PULSE(0 3.3 1n 0.1n 0.2n 5n 10n)
V5 e 0 SIN(1.65 0.25 100meg)
V6 f 0 sin(0 1 1k 2u)
V7 g 0 PWL(0 0 1n 1 2n 0.5)
I1 0 a 1m
I2 0 b DC 2u
I3 0 c PULSE(0 1m 0 1n 1n 4n 10n)
I4 0 d SIN(0 1u 1meg)
I5 0 e pwl(0 0
+ 1n 1m)
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
R5 e 0 1k
R6 f 0 1k
R7 g 0 1k
E1 h 0 a 0 2.0
G1 0 i b 0 1m
RH h 0 1k
RI i 0 1k
.end
";

const MODELS: &str = "\
every model parameter
VCC vcc 0 3.3
Q1 vcc b1 e1 QALL
Q2 e1 b1 vcc QPNP
Q3 vcc b1 e1
D1 b1 0 DALL
D2 b1 0 DALT
D3 b1 0 dboth
D4 b1 0
R1 vcc b1 1k
R2 e1 0 1k
.model QALL NPN (IS=2e-19 BF=120 BR=2 VAF=50 CJE=30f CJC=20f TF=5p TR=0.4n
+ VJE=0.8 MJE=0.4 VJC=0.7 MJC=0.35)
.model QPNP PNP (IS=1e-18 BF=30 BR=1.5 VAF=20 CJE=1p CJC=2p TF=10p TR=1n VJE=0.9 MJE=0.5 VJC=0.6 MJC=0.3)
.model DALL D (IS=1e-14 N=1.05 CJ=1p VJ=0.7 M=0.45)
.model DALT D (IS=2e-14 N=1.2 CJO=3p VJ=0.8 MJ=0.4)
.model dboth d (CJO=5p CJ=4p MJ=0.2 M=0.3 IS=bad N=2 N=3)
.end
";

const ANALYSES: &str = "\
every analysis card
V1 a 0 1.0
R1 a b 1k
C1 b 0 1n
.ic V(b)=0.25 v(a)=1
.IC V(b)=0.5
.dc V1 0 3 0.5
.ac DEC 10 1k 10MEG
.tran 10n 3u
.op
.end
R9 after end 1k
";

/// Well-formed decks and the digest of their canonical `Debug` form.
fn good_decks() -> Vec<(&'static str, String)> {
    let (_, fig3) = fig3_circuit(1.0e9, Some(2.0e3)).expect("fig3");
    let fig3 = write_deck(fig3.netlist(), "fig3 1000 MHz pipe Some(2000.0)");
    let (fig8, _) =
        detector_circuit(2.0e3, DetectorLoad::diode_cap(10.0e-12), 1.0e9, None).expect("fig8");
    let (_, shared) = SharedDetector::new(Variant3::paper(), CmlProcess::paper())
        .build(6, Some((2, 3.0e3)))
        .expect("shared detector");
    vec![
        ("fig3_op", with_cards(&fig3, ".op\n")),
        ("fig3_tran", with_cards(&fig3, ".tran 5e-12 1e-9\n")),
        ("fig8", write_deck(fig8.netlist(), "fig8")),
        ("shared", write_deck(shared.netlist(), "shared detector")),
        ("mixed_case", MIXED_CASE.to_string()),
        ("nested", NESTED.to_string()),
        ("waves", WAVES.to_string()),
        ("models", MODELS.to_string()),
        ("analyses", ANALYSES.to_string()),
        ("crlf", MIXED_CASE.replace('\n', "\r\n")),
    ]
}

/// Malformed decks, each with its card lines after a title line.
const BAD_DECKS: &[(&str, &str)] = &[
    ("few_fields", "R1 a 0\n"),
    ("bad_value", "R1 a 0 abc\n"),
    ("duplicate", "R1 a 0 1k\nr1 b 0 1k\nR1 c 0 1k\n"),
    ("negative", "R1 a 0 -1k\n"),
    ("letter", "Z1 a 0 1\n"),
    ("continuation_first", "+ R1 a 0 1k\n"),
    ("card", ".noise V1\n"),
    ("tran", ".tran 1n\n"),
    ("dc", ".dc V1 0 1\n"),
    ("ac", ".ac lin 10 1 10\n"),
    ("ic", ".ic V(a) = 1\n"),
    ("model_short", ".model X\n"),
    ("model_type", ".model X njf (IS=1)\n"),
    ("model_first", "R1 a 0\n.model Y fet\n"),
    ("unknown_subckt", "X1 a 0 NOPE\n"),
    (
        "ports",
        ".subckt DIV in out\nR1 in out 1k\n.ends\nX1 a div\n",
    ),
    ("nested_def", ".subckt A x\n.subckt B y\n.ends\n.ends\n"),
    ("ends", ".ends\n"),
    ("subckt_short", ".subckt A\n"),
    ("unterminated", ".subckt D a b\nR1 a b 1k\n"),
    ("body_card", ".subckt S a\n.tran 1n 2n\n.ends\nX1 n S\n"),
    ("recursion", ".subckt LOOP a\nX1 a loop\n.ends\nX1 n LOOP\n"),
    ("pulse_short", "V1 a 0 PULSE(0 1 0)\n"),
    ("sin_short", "V1 a 0 SIN(0 1)\n"),
    ("pwl_odd", "V1 a 0 PWL(0 0 1n)\n"),
    ("pulse_paren", "V1 a 0 PULSE(0 1 0 1n 1n 4n 10n\n"),
    ("pulse_open", "V1 a 0 PULSE\n"),
    ("pulse_reversed", "V1 a 0 PULSE)(\n"),
    ("sin_reversed", "V1 a 0 SIN)(\n"),
    ("pwl_reversed", "V1 a 0 PWL)(\n"),
    ("dc_value", "V1 a 0 DC\n"),
    ("wave_value", "V1 a 0 PULSE(0 x 0 1n 1n 4n 10n)\n"),
    ("subckt_letter", ".subckt S a\nW1 a 0 1\n.ends\nX1 n S\n"),
];

#[test]
fn parsed_decks_match_their_pinned_digests() {
    const PINNED: &[(&str, &str)] = &[
        ("fig3_op", "1c09c143ee9d9468"),
        ("fig3_tran", "dd6b38e5a8e72aba"),
        ("fig8", "3f6255f7892bba05"),
        ("shared", "cc1cc3266237650b"),
        ("mixed_case", "811cbe8250ad212d"),
        ("nested", "4b60a7e17cc1d429"),
        ("waves", "8682da01b8520c57"),
        ("models", "3e13e48f691e4b87"),
        ("analyses", "c99688b344aa8e9b"),
        ("crlf", "811cbe8250ad212d"),
    ];
    let got: Vec<(&str, String)> = good_decks()
        .iter()
        .map(|(name, text)| {
            let deck = parse_deck(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (*name, fnv64(&canonical(&deck)))
        })
        .collect();
    let want: Vec<(&str, String)> = PINNED.iter().map(|&(n, d)| (n, d.to_string())).collect();
    assert_eq!(got, want);
}

#[test]
fn malformed_decks_keep_their_error_text() {
    const PINNED: &[(&str, &str)] = &[
        (
            "few_fields",
            "cannot parse value `line 2: `R1` needs at least 4 fields`",
        ),
        ("bad_value", "cannot parse value `abc`"),
        ("duplicate", "duplicate element name `R1`"),
        (
            "negative",
            "invalid value on `R1`: resistance must be positive and finite, got -1000",
        ),
        (
            "letter",
            "cannot parse value `line 2: unsupported element letter `Z``",
        ),
        (
            "continuation_first",
            "cannot parse value `line 2: unsupported element letter `+``",
        ),
        (
            "card",
            "cannot parse value `line 2: unsupported card `.NOISE``",
        ),
        (
            "tran",
            "cannot parse value `line 2: .tran needs tstep tstop`",
        ),
        (
            "dc",
            "cannot parse value `line 2: .dc needs source start stop step`",
        ),
        (
            "ac",
            "cannot parse value `line 2: .ac needs `dec points fstart fstop``",
        ),
        (
            "ic",
            "cannot parse value `line 2: .ic entries look like V(node)=value`",
        ),
        (
            "model_short",
            "cannot parse value `line 2: .model needs a name and a type`",
        ),
        (
            "model_type",
            "cannot parse value `line 2: unsupported model type `NJF``",
        ),
        (
            "model_first",
            "cannot parse value `line 3: unsupported model type `FET``",
        ),
        (
            "unknown_subckt",
            "cannot parse value `line 2: unknown subcircuit `NOPE``",
        ),
        (
            "ports",
            "cannot parse value `line 5: `X1` passes 1 nodes but `DIV` has 2 ports`",
        ),
        (
            "nested_def",
            "cannot parse value `line 3: nested .subckt definitions are not supported`",
        ),
        ("ends", "cannot parse value `line 2: .ends without .subckt`"),
        (
            "subckt_short",
            "cannot parse value `line 2: .subckt needs a name and at least one port`",
        ),
        (
            "unterminated",
            "cannot parse value `line 0: .subckt without matching .ends`",
        ),
        (
            "body_card",
            "cannot parse value `line 3: card `.TRAN` not allowed inside .subckt`",
        ),
        (
            "recursion",
            "cannot parse value `line 3: subcircuit nesting too deep`",
        ),
        (
            "pulse_short",
            "cannot parse value `line 2: PULSE needs v1 v2 td tr tf pw per`",
        ),
        (
            "sin_short",
            "cannot parse value `line 2: SIN needs offset amplitude freq [delay]`",
        ),
        (
            "pwl_odd",
            "cannot parse value `line 2: PWL needs t1 v1 t2 v2 ...`",
        ),
        ("pulse_paren", "cannot parse value `line 2: expected )`"),
        ("pulse_open", "cannot parse value `line 2: expected (`"),
        (
            "pulse_reversed",
            "cannot parse value `line 2: expected ( before )`",
        ),
        (
            "sin_reversed",
            "cannot parse value `line 2: expected ( before )`",
        ),
        (
            "pwl_reversed",
            "cannot parse value `line 2: expected ( before )`",
        ),
        ("dc_value", "cannot parse value `line 2: DC needs a value`"),
        ("wave_value", "cannot parse value `x`"),
        (
            "subckt_letter",
            "cannot parse value `line 3: unsupported element letter `W``",
        ),
    ];
    let got: Vec<(&str, String)> = BAD_DECKS
        .iter()
        .map(|(name, cards)| {
            let text = format!("malformed\n{cards}.end\n");
            match parse_deck(&text) {
                Ok(deck) => panic!("{name} parsed: {deck:?}"),
                Err(e) => (*name, e.to_string()),
            }
        })
        .collect();
    let want: Vec<(&str, String)> = PINNED.iter().map(|&(n, e)| (n, e.to_string())).collect();
    assert_eq!(got, want);
}
