(** CSV input/output for flat record tables — the counterpart of the
    paper's [CsvInputFormat]/[CsvOutputFormat] (Listing 4, lines 8 and 38).

    A table is a list of records with identical field names and
    scalar-ish field values. The first line is a typed header
    ([name:type, ...]); supported column types are [int], [float], [bool],
    [string], [vector] (semicolon-separated components) and [blob]
    (serialized as [bytes;tag] — blobs are opaque payloads, so only their
    size and tag survive, by design). Strings are quoted RFC-4180 style
    when they contain commas, quotes or newlines.

    Nested bags and options are not representable in CSV; writing them
    raises [Unsupported]. *)

module Value = Emma_value.Value

exception Parse_error of { line : int; message : string }
exception Unsupported of string

val to_string : Value.t list -> string
(** Serialize a table. Raises [Unsupported] on an empty table (no schema
    to write), on non-record rows, on rows whose fields differ from the
    first row's, and on unrepresentable field types. *)

val of_string : string -> Value.t list
(** Parse a table produced by {!to_string} (or hand-written with the same
    header convention). Raises [Parse_error] on malformed input. *)

val write_file : string -> Value.t list -> unit
val read_file : string -> Value.t list

val write_tables : dir:string -> (string * Value.t list) list -> unit
(** Write each named table to [dir/<name>.csv], creating [dir]. *)

val table_files : dir:string -> (string * string) list
(** Every [*.csv] in [dir] as a (table name, path) pair, sorted by name. *)

val read_tables : dir:string -> (string * Value.t list) list
(** Read every [*.csv] in [dir] as a (table name, rows) pair. *)
