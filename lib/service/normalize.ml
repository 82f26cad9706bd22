(** Submission → cache key.  See normalize.mli. *)

let cache_key ~assignment ~fuel ~deadline_s ~with_tests src =
  let fp = Jfeed_java.Fingerprint.of_source src in
  let key =
    Printf.sprintf "%s|%s|%s|fuel=%s|dl=%s|tests=%b" assignment
      (Jfeed_kb.Bundles.revision ())
      (Jfeed_java.Fingerprint.to_string fp)
      (match fuel with Some f -> string_of_int f | None -> "-")
      (match deadline_s with Some d -> Printf.sprintf "%g" d | None -> "-")
      with_tests
  in
  (key, fp)
