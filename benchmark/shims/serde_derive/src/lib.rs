//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! Written against `proc_macro` alone (no `syn`/`quote`, which are not
//! available offline): the item is parsed just far enough to learn its
//! name, generics, and the names or count of its fields, and the impl is
//! emitted as source text. Structs (named, tuple, unit) and enums (unit,
//! tuple, and struct variants) with lifetime and type parameters are
//! supported; `#[serde(...)]` attributes are not.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

/// Derive the stand-in's `Serialize` (bincode-layout encoding).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Ser)
}

/// Derive the stand-in's `Deserialize` (bincode-layout decoding).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::De)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Ser,
    De,
}

/// The shape of a struct body or an enum variant's payload.
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

enum Body {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct Item {
    name: String,
    /// Lifetime parameter names, with the quote (`'a`).
    lifetimes: Vec<String>,
    /// Each generic parameter as written, defaults stripped.
    params: Vec<String>,
    /// Type parameter names (these get the trait bound).
    type_params: Vec<String>,
    /// Every parameter's bare name, in order, for `Name<..>`.
    arg_names: Vec<String>,
    /// The `where` clause's predicates as written, if any.
    where_preds: String,
    body: Body,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let src = match parse_item(input) {
        Ok(item) => render(&item, mode),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    src.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde_derive stand-in produced invalid code: {e}\");")
            .parse()
            .expect("literal compile_error parses")
    })
}

fn is_punct(tt: &TokenTree, ch: char) -> bool {
    matches!(tt, TokenTree::Punct(p) if p.as_char() == ch)
}

fn is_ident(tt: &TokenTree, name: &str) -> bool {
    matches!(tt, TokenTree::Ident(i) if i.to_string() == name)
}

/// Advance past `#[...]` attributes and a `pub`/`pub(...)` visibility.
fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> usize {
    loop {
        if i + 1 < toks.len()
            && is_punct(&toks[i], '#')
            && matches!(&toks[i + 1], TokenTree::Group(_))
        {
            i += 2;
        } else if i < toks.len() && is_ident(&toks[i], "pub") {
            i += 1;
            if matches!(toks.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        } else {
            return i;
        }
    }
}

/// Split on commas that sit outside every `<...>` pair. (Parentheses,
/// brackets and braces are already opaque token groups.)
fn split_top_level(toks: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut depth = 0i32;
    let mut prev_dash = false;
    for tt in toks {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            // `->` in a fn-pointer type is not a closing bracket.
            TokenTree::Punct(p) if p.as_char() == '>' && !prev_dash => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                out.push(std::mem::take(&mut cur));
                prev_dash = false;
                continue;
            }
            _ => {}
        }
        prev_dash = is_punct(tt, '-');
        cur.push(tt.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn tokens_to_string(toks: &[TokenTree]) -> String {
    toks.iter().cloned().collect::<TokenStream>().to_string()
}

fn parse_fields(group: &Group) -> Result<Fields, String> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let parts = split_top_level(&toks);
    match group.delimiter() {
        Delimiter::Parenthesis => Ok(Fields::Tuple(parts.len())),
        Delimiter::Brace => {
            let mut names = Vec::new();
            for part in parts {
                let i = skip_attrs_and_vis(&part, 0);
                match part.get(i) {
                    Some(TokenTree::Ident(id)) => names.push(id.to_string()),
                    _ => return Err("serde stand-in: expected a field name".into()),
                }
            }
            Ok(Fields::Named(names))
        }
        _ => Err("serde stand-in: unexpected field delimiter".into()),
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&toks, 0);
    let is_enum = match toks.get(i) {
        Some(tt) if is_ident(tt, "struct") => false,
        Some(tt) if is_ident(tt, "enum") => true,
        _ => return Err("serde stand-in: only structs and enums can derive".into()),
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde stand-in: expected a type name".into()),
    };
    i += 1;

    let mut lifetimes = Vec::new();
    let mut params = Vec::new();
    let mut type_params = Vec::new();
    let mut arg_names = Vec::new();
    if toks.get(i).is_some_and(|tt| is_punct(tt, '<')) {
        let start = i + 1;
        let mut depth = 1;
        i += 1;
        while i < toks.len() && depth > 0 {
            if is_punct(&toks[i], '<') {
                depth += 1;
            } else if is_punct(&toks[i], '>') && !is_punct(&toks[i - 1], '-') {
                depth -= 1;
            }
            i += 1;
        }
        if depth != 0 {
            return Err("serde stand-in: unbalanced generics".into());
        }
        for param in split_top_level(&toks[start..i - 1]) {
            // Strip a default (`= ...`) at angle depth 0.
            let mut depth = 0;
            let mut end = param.len();
            for (k, tt) in param.iter().enumerate() {
                if is_punct(tt, '<') {
                    depth += 1;
                } else if is_punct(tt, '>') {
                    depth -= 1;
                } else if is_punct(tt, '=') && depth == 0 {
                    end = k;
                    break;
                }
            }
            let param = &param[..end];
            match param {
                [q, TokenTree::Ident(id), ..] if is_punct(q, '\'') => {
                    let lt = format!("'{id}");
                    lifetimes.push(lt.clone());
                    arg_names.push(lt);
                }
                [c, TokenTree::Ident(id), ..] if is_ident(c, "const") => {
                    arg_names.push(id.to_string());
                }
                [TokenTree::Ident(id), ..] => {
                    type_params.push(id.to_string());
                    arg_names.push(id.to_string());
                }
                _ => return Err("serde stand-in: unsupported generic parameter".into()),
            }
            params.push(tokens_to_string(param));
        }
    }

    // Tuple structs put the where clause after the parenthesised fields.
    let mut where_preds = String::new();
    let mut take_where = |i: &mut usize, toks: &[TokenTree]| {
        if toks.get(*i).is_some_and(|tt| is_ident(tt, "where")) {
            let start = *i + 1;
            while *i < toks.len()
                && !is_punct(&toks[*i], ';')
                && !matches!(&toks[*i], TokenTree::Group(g) if g.delimiter() == Delimiter::Brace)
            {
                *i += 1;
            }
            where_preds = tokens_to_string(&toks[start..*i]);
        }
    };
    take_where(&mut i, &toks);

    let body = match toks.get(i) {
        Some(TokenTree::Group(g)) if is_enum && g.delimiter() == Delimiter::Brace => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            let mut variants = Vec::new();
            for part in split_top_level(&inner) {
                let k = skip_attrs_and_vis(&part, 0);
                let vname = match part.get(k) {
                    Some(TokenTree::Ident(id)) => id.to_string(),
                    _ => return Err("serde stand-in: expected a variant name".into()),
                };
                let fields = match part.get(k + 1) {
                    Some(TokenTree::Group(g)) => parse_fields(g)?,
                    // Nothing, or an explicit discriminant (`= 3`).
                    _ => Fields::Unit,
                };
                variants.push((vname, fields));
            }
            Body::Enum(variants)
        }
        Some(TokenTree::Group(g)) if !is_enum => {
            let fields = parse_fields(g)?;
            i += 1;
            take_where(&mut i, &toks);
            Body::Struct(fields)
        }
        Some(tt) if !is_enum && is_punct(tt, ';') => Body::Struct(Fields::Unit),
        _ => return Err("serde stand-in: could not find the item body".into()),
    };

    Ok(Item {
        name,
        lifetimes,
        params,
        type_params,
        arg_names,
        where_preds,
        body,
    })
}

/// `impl<..> Trait for Name<..> where ..` up to the opening brace.
fn impl_header(item: &Item, mode: Mode) -> String {
    let mut params: Vec<String> = Vec::new();
    let mut preds: Vec<String> = Vec::new();
    if mode == Mode::De {
        // Borrowed fields must not outlive the input.
        let bounds = item.lifetimes.join(" + ");
        params.push(if bounds.is_empty() {
            "'de".to_string()
        } else {
            format!("'de: {bounds}")
        });
    }
    params.extend(item.params.iter().cloned());
    let bound = match mode {
        Mode::Ser => "::serde::Serialize",
        Mode::De => "::serde::Deserialize<'de>",
    };
    for tp in &item.type_params {
        preds.push(format!("{tp}: {bound}"));
    }
    if !item.where_preds.trim().is_empty() {
        preds.push(item.where_preds.trim().trim_end_matches(',').to_string());
    }
    let trait_name = match mode {
        Mode::Ser => "::serde::Serialize",
        Mode::De => "::serde::Deserialize<'de>",
    };
    let args = if item.arg_names.is_empty() {
        String::new()
    } else {
        format!("<{}>", item.arg_names.join(", "))
    };
    let where_clause = if preds.is_empty() {
        String::new()
    } else {
        format!(" where {}", preds.join(", "))
    };
    format!(
        "#[automatically_derived] impl<{}> {trait_name} for {}{args}{where_clause}",
        params.join(", "),
        item.name
    )
}

/// Statements encoding the bindings named by `fields` (prefixed, so
/// `self.x` for structs and `__f0`/`x` for matched variants).
fn encode_fields(fields: &Fields, access: impl Fn(&str) -> String) -> String {
    let names: Vec<String> = match fields {
        Fields::Unit => Vec::new(),
        Fields::Tuple(n) => (0..*n).map(|k| k.to_string()).collect(),
        Fields::Named(names) => names.clone(),
    };
    names
        .iter()
        .map(|n| format!("::serde::Serialize::encode({}, __out);", access(n)))
        .collect()
}

/// An expression constructing `path` by decoding each field in order.
fn decode_ctor(path: &str, fields: &Fields) -> String {
    const ONE: &str = "::serde::Deserialize::decode(__in)?";
    match fields {
        Fields::Unit => path.to_string(),
        Fields::Tuple(n) => format!("{path}({})", vec![ONE; *n].join(", ")),
        Fields::Named(names) => {
            let inits: Vec<String> = names.iter().map(|n| format!("{n}: {ONE}")).collect();
            format!("{path} {{ {} }}", inits.join(", "))
        }
    }
}

fn render(item: &Item, mode: Mode) -> String {
    let header = impl_header(item, mode);
    let name = &item.name;
    match mode {
        Mode::Ser => {
            let body = match &item.body {
                Body::Struct(fields) => encode_fields(fields, |n| format!("&self.{n}")),
                Body::Enum(variants) if variants.is_empty() => "match *self {}".to_string(),
                Body::Enum(variants) => {
                    let arms: String = variants
                        .iter()
                        .enumerate()
                        .map(|(idx, (vname, fields))| {
                            let pat = match fields {
                                Fields::Unit => String::new(),
                                Fields::Tuple(n) => {
                                    let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                                    format!("({})", binds.join(", "))
                                }
                                Fields::Named(names) => format!("{{ {} }}", names.join(", ")),
                            };
                            let enc = encode_fields(fields, |n| {
                                if n.chars().all(|c| c.is_ascii_digit()) {
                                    format!("__f{n}")
                                } else {
                                    n.to_string()
                                }
                            });
                            format!(
                                "{name}::{vname}{pat} => {{ ::serde::Serialize::encode(&{idx}u32, __out); {enc} }}"
                            )
                        })
                        .collect();
                    format!("match self {{ {arms} }}")
                }
            };
            format!(
                "{header} {{ #[allow(unused_variables)] fn encode(&self, __out: &mut ::std::vec::Vec<u8>) {{ {body} }} }}"
            )
        }
        Mode::De => {
            let body = match &item.body {
                Body::Struct(fields) => {
                    format!("::std::result::Result::Ok({})", decode_ctor(name, fields))
                }
                Body::Enum(variants) => {
                    let arms: String = variants
                        .iter()
                        .enumerate()
                        .map(|(idx, (vname, fields))| {
                            format!(
                                "{idx}u32 => ::std::result::Result::Ok({}),",
                                decode_ctor(&format!("{name}::{vname}"), fields)
                            )
                        })
                        .collect();
                    format!(
                        "match ::serde::__variant(__in)? {{ {arms} __i => ::std::result::Result::Err(::serde::__bad_variant({name:?}, __i)), }}"
                    )
                }
            };
            format!(
                "{header} {{ #[allow(unused_variables)] fn decode(__in: &mut &'de [u8]) -> ::std::result::Result<Self, ::serde::de::Error> {{ {body} }} }}"
            )
        }
    }
}
