//! Seeded Appendix A university documents and the oracles computed from
//! them.
//!
//! The generator is the benchmark's own: it builds a document model from
//! `(run seed, document number)`, prints the model in canonical compact
//! form (no whitespace, no declaration, `&cs;` wherever the text is the
//! entity's replacement), and answers the §4.1 query and the metadata
//! lookup from the model. The program under test only ever sees the
//! printed text, so every check compares the program's output against
//! values it had no part in computing.

/// The paper's Appendix A DTD, with the `CreditPts` declaration the
/// appendix implies and the `cs` entity §6.1 re-substitutes.
pub const DTD: &str = r#"<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ENTITY cs "Computer Science">
<!ELEMENT LName (#PCDATA)>
<!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)>
<!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)>
<!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)>
<!ELEMENT CreditPts (#PCDATA)>"#;

pub const SCHEMA: &str = "uni";
pub const ROOT: &str = "University";

/// Every twentieth document is large; the rest are small. The share is
/// fixed so that every seed stores the same mix. (Large documents stop
/// at 100 students: the default mapping options give `Student*` a
/// `VARRAY(100)`, and the wire server's `.get` rebuilds schemas with the
/// default options.)
pub const LARGE_EVERY: u64 = 20;
pub const SMALL_STUDENTS: (u64, u64) = (2, 5);
pub const LARGE_STUDENTS: (u64, u64) = (70, 100);

/// The professor the §4.1 query asks for ("family names of students who
/// subscribed to a course of Professor Jaeger").
pub const QUERY_PROFESSOR: &str = "Jaeger";

const LAST_NAMES: &[&str] = &[
    "Conrad", "Meier", "Kudrass", "Jaeger", "Schmidt", "Fischer", "Weber", "Wagner", "Becker",
    "Hoffmann", "Koch", "Richter",
];
const FIRST_NAMES: &[&str] = &[
    "Matthias", "Ralf", "Thomas", "Anna", "Julia", "Stefan", "Petra", "Karin", "Jens", "Uwe",
];
const COURSE_NAMES: &[&str] = &[
    "Database Systems II",
    "CAD Intro",
    "Operating Systems",
    "Compiler Construction",
    "Information Retrieval",
    "Computer Graphics",
    "Software Engineering",
    "Distributed Systems",
];
const SUBJECTS: &[&str] = &[
    "Database Systems",
    "Operat. Systems",
    "CAD",
    "CAE",
    "Networks",
    "Algorithms",
    "Formal Methods",
    "Information Systems",
];
/// `None` stands for the `cs` entity's replacement text, printed as `&cs;`.
const DEPTS: &[Option<&str>] = &[None, Some("Mathematics"), Some("Electrical Engineering")];

/// SplitMix64: small, seedable, and independent of the program's own PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next_u64() % items.len() as u64) as usize]
    }
}

pub struct Professor {
    pub pname: &'static str,
    pub subjects: Vec<&'static str>,
    pub dept: Option<&'static str>,
}

pub struct Course {
    pub name: &'static str,
    pub professors: Vec<Professor>,
    pub credit_pts: Option<u64>,
}

pub struct Student {
    pub stud_nr: u64,
    pub lname: &'static str,
    pub fname: &'static str,
    pub courses: Vec<Course>,
}

pub struct University {
    pub students: Vec<Student>,
}

/// The seed of document `n` (1-based, as in its DocID `uni-<n>`) of a run.
fn doc_seed(run_seed: u64, n: u64) -> u64 {
    Rng::new(run_seed ^ n.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Size classes: [`Size::Mixed`] makes every [`LARGE_EVERY`]th document
/// large, [`Size::Large`] makes them all large.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Mixed,
    Large,
}

/// Re-create document `n` of the run seeded `run_seed`.
///
/// The shape of document `n` (how many students, courses, professors and
/// subjects) depends on `n` and `size` alone, so every seed stores the
/// same amount of data; the seed chooses the names, course titles,
/// subjects, departments and credit points.
pub fn document(run_seed: u64, n: u64, size: Size) -> University {
    let mut shape = Rng::new(doc_seed(0, n));
    let mut text = Rng::new(doc_seed(run_seed, n));
    let large = size == Size::Large || n.is_multiple_of(LARGE_EVERY);
    let (lo, hi) = if large {
        LARGE_STUDENTS
    } else {
        SMALL_STUDENTS
    };
    let students = (0..shape.range(lo, hi))
        .map(|s| Student {
            stud_nr: s + 1,
            lname: text.pick(LAST_NAMES),
            fname: text.pick(FIRST_NAMES),
            courses: (0..shape.range(1, 3))
                .map(|_| Course {
                    name: text.pick(COURSE_NAMES),
                    professors: (0..shape.range(0, 2))
                        .map(|_| Professor {
                            pname: text.pick(LAST_NAMES),
                            subjects: (0..shape.range(1, 3))
                                .map(|_| text.pick(SUBJECTS))
                                .collect(),
                            dept: text.pick(DEPTS),
                        })
                        .collect(),
                    credit_pts: (shape.range(0, 4) > 0).then(|| text.range(2, 7)),
                })
                .collect(),
        })
        .collect();
    University { students }
}

impl University {
    /// Canonical compact form: exactly the text `.get` must return.
    pub fn xml(&self) -> String {
        let mut out = String::with_capacity(64 + self.students.len() * 256);
        out.push_str("<University><StudyCourse>&cs;</StudyCourse>");
        for s in &self.students {
            out.push_str(&format!(
                "<Student StudNr=\"{:05}\"><LName>{}</LName><FName>{}</FName>",
                s.stud_nr, s.lname, s.fname
            ));
            for c in &s.courses {
                out.push_str(&format!("<Course><Name>{}</Name>", c.name));
                for p in &c.professors {
                    out.push_str(&format!("<Professor><PName>{}</PName>", p.pname));
                    for subject in &p.subjects {
                        out.push_str(&format!("<Subject>{subject}</Subject>"));
                    }
                    out.push_str(&format!(
                        "<Dept>{}</Dept></Professor>",
                        p.dept.unwrap_or("&cs;")
                    ));
                }
                if let Some(pts) = c.credit_pts {
                    out.push_str(&format!("<CreditPts>{pts}</CreditPts>"));
                }
                out.push_str("</Course>");
            }
            out.push_str("</Student>");
        }
        out.push_str("</University>");
        out
    }

    /// Rows the §4.1 query returns for this document: one per
    /// (student, course, professor) binding whose professor is
    /// [`QUERY_PROFESSOR`], each carrying the student's family name.
    pub fn query_rows(&self) -> Vec<&'static str> {
        let mut rows = Vec::new();
        for s in &self.students {
            for c in &s.courses {
                for p in &c.professors {
                    if p.pname == QUERY_PROFESSOR {
                        rows.push(s.lname);
                    }
                }
            }
        }
        rows
    }
}

/// FNV-1a: the benchmark keeps a 64-bit digest of each expected body
/// rather than the body itself, so the oracle costs no memory in the
/// process that holds the store.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
