//! The workspace's one JSON serializer.
//!
//! Every machine-readable surface — the JSONL events, the `/traces`
//! record, `/healthz`, the observability plane's error bodies — is a
//! flat object of strings, numbers, booleans and pre-rendered nested
//! values, so a chained field writer is all the workspace needs. It is
//! the only caller of `json_escape`: a string reaches the output
//! either through [`JsonObject::string`] (or a key) or not at all.

/// Escapes `s` for inclusion inside a JSON string literal.
pub(crate) fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// One JSON object under construction; fields render in call order, with
/// no whitespace.
///
/// ```
/// use ioql_telemetry::JsonObject;
/// let wal = JsonObject::new().number("pending", 0).finish();
/// let body = JsonObject::new()
///     .string("status", "ok")
///     .nullable("session", None)
///     .raw("wal", &wal)
///     .finish();
/// assert_eq!(body, r#"{"status":"ok","session":null,"wal":{"pending":0}}"#);
/// ```
#[derive(Clone, Debug)]
pub struct JsonObject(String);

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject(String::from("{"))
    }

    fn key(&mut self, key: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        self.0.push('"');
        json_escape(key, &mut self.0);
        self.0.push_str("\":");
    }

    /// A string field, escaped.
    pub fn string(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        self.0.push('"');
        json_escape(value, &mut self.0);
        self.0.push('"');
        self
    }

    /// A string field, or `null`.
    pub fn nullable(self, key: &str, value: Option<&str>) -> JsonObject {
        match value {
            Some(v) => self.string(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// An unsigned integer field.
    pub fn number(self, key: &str, value: u64) -> JsonObject {
        self.raw(key, &value.to_string())
    }

    /// A boolean field.
    pub fn boolean(self, key: &str, value: bool) -> JsonObject {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// A field whose value is already JSON: a nested
    /// [`finish`](JsonObject::finish)ed object, an array, `null`.
    pub fn raw(mut self, key: &str, json: &str) -> JsonObject {
        self.key(key);
        self.0.push_str(json);
        self
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Renders already-serialized values as a JSON array.
pub(crate) fn json_array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_escaped_and_arrays_join() {
        let o = JsonObject::new()
            .number("trips{kind=\"cells\"}", 1)
            .boolean("ok", true)
            .finish();
        assert_eq!(o, "{\"trips{kind=\\\"cells\\\"}\":1,\"ok\":true}");
        assert_eq!(
            json_array([o.clone(), "null".into()]),
            format!("[{o},null]")
        );
        assert_eq!(json_array([]), "[]");
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
