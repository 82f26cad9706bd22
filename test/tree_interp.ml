(** The tree-walking interpreter, kept as the differential-test oracle
    of {!Jfeed_interp.Interp}.

    This is the big-step interpreter the compiled one replaced: it walks
    the AST on every step, keeps variables in string-keyed scopes and
    unwinds [break]/[continue]/[return] with exceptions.  It is slow and
    deliberately left that way; it exists so that every behaviour of the
    compiled interpreter — stdout, result, error text, step count, fuel
    spent and variable-trace snapshots — can be checked against an
    independent implementation.  Do not optimise it. *)

open Jfeed_java
open Jfeed_interp
open Value

exception Runtime_error of string
exception Step_limit
exception Fuel_exhausted

type config = Interp.config = {
  files : (string * string) list;
  max_steps : int;
}

let default_config = Interp.default_config

type outcome = Interp.outcome = {
  stdout : string;
  result : Value.t option;
  steps : int;
  error : string option;
}

type ctx = {
  methods : (string, Ast.meth) Hashtbl.t;
  config : config;
  budget : Jfeed_budget.Budget.t option;
      (** shared grading fuel pool; unlike [config.max_steps] (per run)
          it is spent across runs, unifying the interpreter's step
          budget with the matcher's and the pairing search's *)
  out : Buffer.t;
  mutable steps : int;
  mutable trace_sink : ((string * Value.t) list -> unit) option;
      (** when set, receives a name-sorted snapshot of the visible
          variables after every executed statement (CLARA-style variable
          traces). *)
}

(* Block-structured environments: a frame is a stack of scopes. *)
type _env = (string, Value.t) Hashtbl.t list

exception Break_exc
exception Continue_exc
exception Return_exc of Value.t

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let tick ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.config.max_steps then raise Step_limit;
  match ctx.budget with
  | Some b
    when not (Jfeed_budget.Budget.spend b Jfeed_budget.Budget.Interp 1) ->
      raise Fuel_exhausted
  | _ -> ()

let rec lookup env x =
  match env with
  | [] -> fail "variable %s is not defined" x
  | scope :: rest -> (
      match Hashtbl.find_opt scope x with
      | Some v -> v
      | None -> lookup rest x)

let rec update env x v =
  match env with
  | [] -> fail "variable %s is not defined" x
  | scope :: rest ->
      if Hashtbl.mem scope x then Hashtbl.replace scope x v
      else update rest x v

let declare env x v =
  match env with
  | scope :: _ -> Hashtbl.replace scope x v
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Numeric helpers (Java semantics)                                    *)

let as_number = function
  | Vint n -> `Int n
  | Vdouble f -> `Double f
  | Vchar c -> `Int (Char.code c)
  | v -> fail "expected a number, found %s" (type_name v)

let arith op a b =
  match (as_number a, as_number b) with
  | `Int x, `Int y -> (
      match op with
      | Ast.Add -> vint (x + y)
      | Ast.Sub -> vint (x - y)
      | Ast.Mul -> vint (x * y)
      | Ast.Div ->
          if y = 0 then fail "/ by zero" else vint (Stdlib.( / ) x y)
      | Ast.Mod -> if y = 0 then fail "%% by zero" else vint (x mod y)
      | Ast.Bit_and -> vint (x land y)
      | Ast.Bit_or -> vint (x lor y)
      | Ast.Bit_xor -> vint (x lxor y)
      | Ast.Shl -> vint (x lsl (y land 31))
      | Ast.Shr -> vint (x asr (y land 31))
      | Ast.Ushr -> vint (wrap32 ((x land 0xFFFFFFFF) lsr (y land 31)))
      | _ -> assert false)
  | (`Int _ | `Double _), (`Int _ | `Double _) -> (
      let x = match as_number a with `Int n -> float_of_int n | `Double f -> f in
      let y = match as_number b with `Int n -> float_of_int n | `Double f -> f in
      match op with
      | Ast.Add -> Vdouble (x +. y)
      | Ast.Sub -> Vdouble (x -. y)
      | Ast.Mul -> Vdouble (x *. y)
      | Ast.Div -> Vdouble (x /. y)
      | Ast.Mod -> Vdouble (Float.rem x y)
      | _ -> fail "bitwise operator on double")

let compare_values op a b =
  let x, y =
    match (as_number a, as_number b) with
    | `Int x, `Int y -> (float_of_int x, float_of_int y)
    | `Int x, `Double y -> (float_of_int x, y)
    | `Double x, `Int y -> (x, float_of_int y)
    | `Double x, `Double y -> (x, y)
  in
  Vbool
    (match op with
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
    | _ -> assert false)

let as_bool = function
  | Vbool b -> b
  | v -> fail "expected a boolean, found %s" (type_name v)

let as_int = function
  | Vint n -> n
  | Vchar c -> Char.code c
  | v -> fail "expected an int, found %s" (type_name v)

let as_double = function
  | Vdouble f -> f
  | Vint n -> float_of_int n
  | v -> fail "expected a double, found %s" (type_name v)

let default_value = function
  | Ast.Tprim "double" | Ast.Tprim "float" -> Vdouble 0.0
  | Ast.Tprim "boolean" -> Vbool false
  | Ast.Tprim "char" -> Vchar '\000'
  | Ast.Tprim _ -> Vint 0
  | Ast.Tclass _ | Ast.Tarray _ -> Vnull

(* ------------------------------------------------------------------ *)
(* Scanner / whitespace tokenization                                   *)

let split_tokens content =
  String.split_on_char '\n' content
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun s -> s <> "")

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let rec eval ctx env (e : Ast.expr) : Value.t =
  match e with
  | Ast.Int_lit n -> vint n
  | Ast.Double_lit f -> Vdouble f
  | Ast.Bool_lit b -> Vbool b
  | Ast.Char_lit c -> Vchar c
  | Ast.Str_lit s -> Vstr s
  | Ast.Null_lit -> Vnull
  | Ast.Var x -> lookup env x
  | Ast.Field (obj, fld) -> eval_field ctx env obj fld
  | Ast.Index (arr, idx) -> (
      let a = eval ctx env arr in
      let i = as_int (eval ctx env idx) in
      match a with
      | Varr elems ->
          if i < 0 || i >= Array.length elems then
            fail "Index %d out of bounds for length %d" i (Array.length elems)
          else elems.(i)
      | Vnull -> fail "NullPointerException (array access)"
      | v -> fail "cannot index a %s" (type_name v))
  | Ast.Call (recv, name, args) -> eval_call ctx env recv name args
  | Ast.New (Tclass "File", [ path ]) -> eval ctx env path
  | Ast.New (Tclass "Scanner", [ src ]) -> (
      match eval ctx env src with
      | Vstr path -> (
          match List.assoc_opt path ctx.config.files with
          | Some content ->
              Vscanner { tokens = split_tokens content; closed = false }
          | None -> fail "FileNotFoundException: %s" path)
      | v -> fail "cannot build a Scanner from a %s" (type_name v))
  | Ast.New (t, _) -> fail "cannot instantiate %s" (Ast.string_of_typ t)
  | Ast.New_array (t, dims) ->
      let dims = List.map (fun d -> as_int (eval ctx env d)) dims in
      let rec build = function
        | [] -> default_value t
        | d :: rest ->
            if d < 0 then fail "NegativeArraySizeException: %d" d
            else Varr (Array.init d (fun _ -> build rest))
      in
      build dims
  | Ast.Array_lit elts -> Varr (Array.of_list (List.map (eval ctx env) elts))
  | Ast.Unary (op, e) -> (
      let v = eval ctx env e in
      match op with
      | Ast.Neg -> (
          match as_number v with
          | `Int n -> vint (-n)
          | `Double f -> Vdouble (-.f))
      | Ast.Uplus -> v
      | Ast.Not -> Vbool (not (as_bool v))
      | Ast.Bit_not -> vint (lnot (as_int v)))
  | Ast.Incdec (kind, target) ->
      let old, store = eval_lvalue ctx env target in
      let delta = match kind with
        | Ast.Pre_incr | Ast.Post_incr -> 1
        | Ast.Pre_decr | Ast.Post_decr -> -1
      in
      let updated =
        match as_number old with
        | `Int n -> vint (n + delta)
        | `Double f -> Vdouble (f +. float_of_int delta)
      in
      store updated;
      (match kind with
      | Ast.Pre_incr | Ast.Pre_decr -> updated
      | Ast.Post_incr | Ast.Post_decr -> old)
  | Ast.Binary (Ast.And, a, b) ->
      if as_bool (eval ctx env a) then Vbool (as_bool (eval ctx env b))
      else Vbool false
  | Ast.Binary (Ast.Or, a, b) ->
      if as_bool (eval ctx env a) then Vbool true
      else Vbool (as_bool (eval ctx env b))
  | Ast.Binary (op, a, b) -> (
      let va = eval ctx env a in
      let vb = eval ctx env b in
      match op with
      | Ast.Add when (match (va, vb) with Vstr _, _ | _, Vstr _ -> true | _ -> false)
        ->
          Vstr (to_display va ^ to_display vb)
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Bit_and
      | Ast.Bit_or | Ast.Bit_xor | Ast.Shl | Ast.Shr | Ast.Ushr ->
          arith op va vb
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> compare_values op va vb
      | Ast.Eq -> Vbool (Value.equal va vb)
      | Ast.Ne -> Vbool (not (Value.equal va vb))
      | Ast.And | Ast.Or -> assert false)
  | Ast.Assign (Ast.Set, lhs, rhs) ->
      let rv = eval ctx env rhs in
      assign_lvalue ctx env lhs rv;
      rv
  | Ast.Assign (op, lhs, rhs) ->
      let rv = eval ctx env rhs in
      let old, store = eval_lvalue ctx env lhs in
      let bin =
        match op with
        | Ast.Add_eq -> Ast.Add
        | Ast.Sub_eq -> Ast.Sub
        | Ast.Mul_eq -> Ast.Mul
        | Ast.Div_eq -> Ast.Div
        | Ast.Mod_eq -> Ast.Mod
        | Ast.Set -> assert false
      in
      let final =
        if bin = Ast.Add && (match (old, rv) with Vstr _, _ -> true | _ -> false)
        then Vstr (to_display old ^ to_display rv)
        else arith bin old rv
      in
      store final;
      final
  | Ast.Ternary (c, t, f) ->
      if as_bool (eval ctx env c) then eval ctx env t else eval ctx env f
  | Ast.Cast (Tprim ("int" | "long" | "short" | "byte"), e) -> (
      match as_number (eval ctx env e) with
      | `Int n -> vint n
      | `Double f -> vint (int_of_float (Float.trunc f)))
  | Ast.Cast (Tprim ("double" | "float"), e) ->
      Vdouble (as_double (eval ctx env e))
  | Ast.Cast (Tprim "char", e) -> (
      match as_number (eval ctx env e) with
      | `Int n -> Vchar (Char.chr (n land 0xFF))
      | `Double f -> Vchar (Char.chr (int_of_float f land 0xFF)))
  | Ast.Cast (t, e) ->
      ignore (Ast.string_of_typ t);
      eval ctx env e

(* Read-modify-write targets: the current value and a store into the
   same location, with the array and index evaluated once. *)
and eval_lvalue ctx env = function
  | Ast.Var x -> (lookup env x, fun v -> update env x v)
  | Ast.Index (arr, idx) -> (
      let a = eval ctx env arr in
      let i = as_int (eval ctx env idx) in
      match a with
      | Varr elems ->
          if i < 0 || i >= Array.length elems then
            fail "Index %d out of bounds for length %d" i (Array.length elems)
          else (elems.(i), fun v -> elems.(i) <- v)
      | Vnull -> fail "NullPointerException (array access)"
      | v -> fail "cannot index a %s" (type_name v))
  | e -> (eval ctx env e, fun _ -> fail "unsupported assignment target")

and assign_lvalue ctx env lhs v =
  match lhs with
  | Ast.Var x -> update env x v
  | Ast.Index (arr, idx) -> (
      let a = eval ctx env arr in
      let i = as_int (eval ctx env idx) in
      match a with
      | Varr elems ->
          if i < 0 || i >= Array.length elems then
            fail "Index %d out of bounds for length %d" i (Array.length elems)
          else elems.(i) <- v
      | Vnull -> fail "NullPointerException (array store)"
      | other -> fail "cannot index a %s" (type_name other))
  | _ -> fail "unsupported assignment target"

and eval_field ctx env obj fld =
  match (obj, fld) with
  | Ast.Var "Integer", "MAX_VALUE" -> Vint 0x7FFFFFFF
  | Ast.Var "Integer", "MIN_VALUE" -> Vint (-0x80000000)
  | Ast.Var "Math", "PI" -> Vdouble Float.pi
  | _, "length" -> (
      match eval ctx env obj with
      | Varr a -> Vint (Array.length a)
      | Vnull -> fail "NullPointerException (.length)"
      | v -> fail "%s has no field length" (type_name v))
  | Ast.Var "System", "out" -> Vnull (* only meaningful as a call receiver *)
  | _ -> fail "unsupported field access .%s" fld

and eval_call ctx env recv name args =
  tick ctx;
  match recv with
  | Some (Ast.Field (Ast.Var "System", "out")) -> (
      let vals = List.map (eval ctx env) args in
      match (name, vals) with
      | "println", [] ->
          Buffer.add_char ctx.out '\n';
          Vnull
      | "println", [ v ] ->
          Buffer.add_string ctx.out (to_display v);
          Buffer.add_char ctx.out '\n';
          Vnull
      | "print", [ v ] ->
          Buffer.add_string ctx.out (to_display v);
          Vnull
      | _ -> fail "unsupported System.out.%s/%d" name (List.length vals))
  | Some (Ast.Var "Math") -> (
      let vals = List.map (eval ctx env) args in
      match (name, vals) with
      | "pow", [ a; b ] -> Vdouble (Float.pow (as_double a) (as_double b))
      | "sqrt", [ a ] -> Vdouble (Float.sqrt (as_double a))
      | "abs", [ Vint n ] -> vint (abs n)
      | "abs", [ Vdouble f ] -> Vdouble (Float.abs f)
      | "floor", [ a ] -> Vdouble (Float.floor (as_double a))
      | "ceil", [ a ] -> Vdouble (Float.ceil (as_double a))
      | "log10", [ a ] -> Vdouble (Float.log10 (as_double a))
      | "log", [ a ] -> Vdouble (Float.log (as_double a))
      | "min", [ Vint a; Vint b ] -> Vint (min a b)
      | "max", [ Vint a; Vint b ] -> Vint (max a b)
      | "min", [ a; b ] -> Vdouble (Float.min (as_double a) (as_double b))
      | "max", [ a; b ] -> Vdouble (Float.max (as_double a) (as_double b))
      | _ -> fail "unsupported Math.%s/%d" name (List.length vals))
  | Some (Ast.Var "Integer") -> (
      let vals = List.map (eval ctx env) args in
      match (name, vals) with
      | "parseInt", [ Vstr s ] -> (
          match int_of_string_opt (String.trim s) with
          | Some n -> vint n
          | None -> fail "NumberFormatException: %S" s)
      | "toString", [ Vint n ] -> Vstr (string_of_int n)
      | _ -> fail "unsupported Integer.%s" name)
  | Some (Ast.Var "String") -> (
      let vals = List.map (eval ctx env) args in
      match (name, vals) with
      | "valueOf", [ v ] -> Vstr (to_display v)
      | _ -> fail "unsupported String.%s" name)
  | Some receiver_expr -> (
      let receiver = eval ctx env receiver_expr in
      let vals = List.map (eval ctx env) args in
      match receiver with
      | Vscanner sc -> scanner_call sc name vals
      | Vstr s -> string_call s name vals
      | Vnull -> fail "NullPointerException (method call .%s)" name
      | v -> fail "cannot call .%s on a %s" name (type_name v))
  | None -> (
      match Hashtbl.find_opt ctx.methods name with
      | None -> fail "unknown method %s" name
      | Some m ->
          let vals = List.map (eval ctx env) args in
          call_method ctx m vals)

and scanner_call sc name vals =
  let ensure_open () = if sc.closed then fail "Scanner is closed" in
  match (name, vals) with
  | "hasNext", [] ->
      ensure_open ();
      Vbool (sc.tokens <> [])
  | "hasNextInt", [] ->
      ensure_open ();
      Vbool
        (match sc.tokens with
        | t :: _ -> int_of_string_opt t <> None
        | [] -> false)
  | "next", [] -> (
      ensure_open ();
      match sc.tokens with
      | t :: rest ->
          sc.tokens <- rest;
          Vstr t
      | [] -> fail "NoSuchElementException")
  | "nextInt", [] -> (
      ensure_open ();
      match sc.tokens with
      | t :: rest -> (
          match int_of_string_opt t with
          | Some n ->
              sc.tokens <- rest;
              vint n
          | None -> fail "InputMismatchException: %S" t)
      | [] -> fail "NoSuchElementException")
  | "close", [] ->
      sc.closed <- true;
      Vnull
  | _ -> fail "unsupported Scanner.%s/%d" name (List.length vals)

and string_call s name vals =
  match (name, vals) with
  | "equals", [ Vstr t ] -> Vbool (s = t)
  | "equals", [ _ ] -> Vbool false
  | "equalsIgnoreCase", [ Vstr t ] ->
      Vbool (String.lowercase_ascii s = String.lowercase_ascii t)
  | "length", [] -> Vint (String.length s)
  | "charAt", [ Vint i ] ->
      if i < 0 || i >= String.length s then
        fail "StringIndexOutOfBoundsException: %d" i
      else Vchar s.[i]
  | "isEmpty", [] -> Vbool (s = "")
  | "concat", [ Vstr t ] -> Vstr (s ^ t)
  | "contains", [ Vstr t ] ->
      let re_free =
        let n = String.length t in
        let rec at i =
          if i + n > String.length s then false
          else if String.sub s i n = t then true
          else at (i + 1)
        in
        n = 0 || at 0
      in
      Vbool re_free
  | "trim", [] -> Vstr (String.trim s)
  | _ -> fail "unsupported String.%s/%d" name (List.length vals)

and call_method ctx (m : Ast.meth) vals =
  if List.length vals <> List.length m.Ast.m_params then
    fail "method %s expects %d arguments, got %d" m.Ast.m_name
      (List.length m.Ast.m_params) (List.length vals);
  let scope = Hashtbl.create 8 in
  List.iter2
    (fun (p : Ast.param) v -> Hashtbl.replace scope p.Ast.p_name v)
    m.Ast.m_params vals;
  match List.iter (exec ctx [ scope ]) m.Ast.m_body with
  | () -> Vnull
  | exception Return_exc v -> v
  | exception Break_exc -> fail "break outside switch or loop"
  | exception Continue_exc -> fail "continue outside of loop"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

and snapshot env =
  let tbl = Hashtbl.create 16 in
  (* Inner scopes shadow outer ones: record innermost bindings only. *)
  List.iter
    (fun scope ->
      Hashtbl.iter
        (fun x v -> if not (Hashtbl.mem tbl x) then Hashtbl.add tbl x v)
        scope)
    env;
  Hashtbl.fold (fun x v acc -> (x, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

and exec ctx env (s : Ast.stmt) =
  tick ctx;
  exec_inner ctx env s;
  match ctx.trace_sink with
  | Some sink -> sink (snapshot env)
  | None -> ()

and exec_inner ctx env (s : Ast.stmt) =
  match s with
  | Ast.Sempty -> ()
  | Ast.Sblock body ->
      let scope = Hashtbl.create 4 in
      List.iter (exec ctx (scope :: env)) body
  | Ast.Sdecl decls ->
      List.iter
        (fun (d : Ast.var_decl) ->
          let v =
            match d.Ast.d_init with
            | Some e -> eval ctx env e
            | None -> default_value d.Ast.d_type
          in
          declare env d.Ast.d_name v)
        decls
  | Ast.Sexpr e -> ignore (eval ctx env e)
  | Ast.Sif (c, then_, else_) ->
      if as_bool (eval ctx env c) then exec_scoped ctx env then_
      else Option.iter (exec_scoped ctx env) else_
  | Ast.Swhile (c, body) -> (
      try
        while as_bool (eval ctx env c) do
          tick ctx;
          try exec_scoped ctx env body with Continue_exc -> ()
        done
      with Break_exc -> ())
  | Ast.Sdo (body, c) -> (
      try
        let continue_loop = ref true in
        while !continue_loop do
          tick ctx;
          (try exec_scoped ctx env body with Continue_exc -> ());
          continue_loop := as_bool (eval ctx env c)
        done
      with Break_exc -> ())
  | Ast.Sfor (init, cond, update, body) -> (
      let scope = Hashtbl.create 4 in
      let env' = scope :: env in
      (match init with
      | None -> ()
      | Some (Ast.For_decl decls) -> exec ctx env' (Ast.Sdecl decls)
      | Some (Ast.For_exprs es) ->
          List.iter (fun e -> ignore (eval ctx env' e)) es);
      let check () =
        match cond with None -> true | Some c -> as_bool (eval ctx env' c)
      in
      try
        while check () do
          tick ctx;
          (try exec_scoped ctx env' body with Continue_exc -> ());
          List.iter (fun e -> ignore (eval ctx env' e)) update
        done
      with Break_exc -> ())
  | Ast.Sswitch (scrutinee, cases) -> (
      let v = eval ctx env scrutinee in
      let rec run_from = function
        | [] -> ()
        | (k : Ast.switch_case) :: rest ->
            List.iter (exec ctx env) k.Ast.case_body;
            run_from rest
      in
      let rec find = function
        | [] ->
            (* fall back to default if present *)
            let rec from_default = function
              | [] -> ()
              | (k : Ast.switch_case) :: rest ->
                  if k.Ast.case_label = None then run_from (k :: rest)
                  else from_default rest
            in
            from_default cases
        | (k : Ast.switch_case) :: rest -> (
            match k.Ast.case_label with
            | Some label when Value.equal (eval ctx env label) v ->
                run_from (k :: rest)
            | _ -> find rest)
      in
      try find cases with Break_exc -> ())
  | Ast.Sbreak -> raise Break_exc
  | Ast.Scontinue -> raise Continue_exc
  | Ast.Sreturn None -> raise (Return_exc Vnull)
  | Ast.Sreturn (Some e) -> raise (Return_exc (eval ctx env e))

and exec_scoped ctx env s =
  match s with
  | Ast.Sblock _ -> exec ctx env s
  | _ ->
      let scope = Hashtbl.create 2 in
      exec ctx (scope :: env) s

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

(* Shared tail of run/run_traced: invoke the entry method and convert
   every interpreter exception into an outcome — never a raise. *)
let finish ctx entry args =
  match Hashtbl.find_opt ctx.methods entry with
  | None ->
      {
        stdout = "";
        result = None;
        steps = 0;
        error = Some (Printf.sprintf "no method named %s" entry);
      }
  | Some m -> (
      match call_method ctx m args with
      | v ->
          {
            stdout = Buffer.contents ctx.out;
            result = Some v;
            steps = ctx.steps;
            error = None;
          }
      | exception Runtime_error msg ->
          {
            stdout = Buffer.contents ctx.out;
            result = None;
            steps = ctx.steps;
            error = Some msg;
          }
      | exception Step_limit ->
          {
            stdout = Buffer.contents ctx.out;
            result = None;
            steps = ctx.steps;
            error = Some "step limit exceeded";
          }
      | exception Fuel_exhausted ->
          {
            stdout = Buffer.contents ctx.out;
            result = None;
            steps = ctx.steps;
            error = Some "fuel budget exhausted";
          })

let run ?budget ?(config = default_config) (prog : Ast.program) ~entry ~args
    =
  let methods = Hashtbl.create 8 in
  List.iter
    (fun (m : Ast.meth) -> Hashtbl.replace methods m.Ast.m_name m)
    prog.Ast.methods;
  let ctx =
    {
      methods;
      config;
      budget;
      out = Buffer.create 256;
      steps = 0;
      trace_sink = None;
    }
  in
  finish ctx entry args

(** Run and additionally collect the CLARA-style variable trace: one
    name-sorted snapshot of the visible variables per executed statement.
    Values are rendered with {!Value.to_display}. *)
let run_traced ?budget ?(config = default_config) (prog : Ast.program)
    ~entry ~args =
  let methods = Hashtbl.create 8 in
  List.iter
    (fun (m : Ast.meth) -> Hashtbl.replace methods m.Ast.m_name m)
    prog.Ast.methods;
  let trace = ref [] in
  (* Scalars are rendered in full; aggregates only by a cheap summary —
     rendering a large array on every snapshot would make tracing
     quadratic in the input size (CLARA traces scalar variables). *)
  let cheap = function
    | (Vint _ | Vdouble _ | Vbool _ | Vchar _ | Vstr _ | Vnull) as v ->
        to_display v
    | Varr a -> Printf.sprintf "<array:%d>" (Array.length a)
    | Vscanner _ -> "<scanner>"
  in
  let sink snap =
    trace := List.map (fun (x, v) -> (x, cheap v)) snap :: !trace
  in
  let ctx =
    {
      methods;
      config;
      budget;
      out = Buffer.create 256;
      steps = 0;
      trace_sink = Some sink;
    }
  in
  let outcome = finish ctx entry args in
  (outcome, List.rev !trace)
