(** Submission fingerprint: the α-rename + canonical-print hash.

    The digest of the canonically α-renamed
    ({!Jfeed_java.Normalize.alpha_rename}), canonically pretty-printed
    ({!Jfeed_java.Pretty.program}) AST — two submissions share it exactly
    when they differ only by consistent variable renamings, whitespace,
    and comments, which is precisely the variation that cannot change a
    grade's structure.  When the source does not parse, the digest falls
    back to the raw bytes ([ast = false]): unparseable inputs are
    rejected with a diagnostic that quotes exact line/column positions,
    so only a byte-identical resubmission may share that outcome.

    Both dedup consumers build on this one definition: the serving
    tier's result cache ({!Jfeed_service.Normalize} scopes it by
    assignment, KB revision and budget) and batch-level submission dedup
    ({!Jfeed_robust.Pipeline.run_batch} groups a batch into equivalence
    classes and grades one representative per class). *)

type t = {
  ast : bool;  (** true: α-normalized AST digest; false: raw-bytes digest *)
  digest : string;  (** hex *)
}

(** The α-normalized AST digest of a parsed program. *)
let of_program prog =
  let canonical = Pretty.program (Normalize.alpha_rename prog) in
  { ast = true; digest = Digest.to_hex (Digest.string canonical) }

(** The raw-bytes digest, for sources with no usable AST. *)
let of_raw src = { ast = false; digest = Digest.to_hex (Digest.string src) }

(** The fingerprint of [src] given its parse ([None]: it did not parse).
    Total: a program that parses but cannot be normalised (an exception
    in [of_program]) falls back to its raw bytes, like unparseable
    input. *)
let of_parse src = function
  | None -> of_raw src
  | Some prog -> ( try of_program prog with _ -> of_raw src)

(** Parse [src], then {!of_parse}: the serve cache's entry point. *)
let of_source src =
  of_parse src
    (match Parser.parse_program src with
    | prog -> Some prog
    | exception _ -> None)

(** The fingerprint as one string, ["ast:<hex>"] or ["raw:<hex>"] —
    distinct namespaces, so an AST digest can never collide with a
    raw-bytes digest. *)
let to_string fp = (if fp.ast then "ast:" else "raw:") ^ fp.digest
