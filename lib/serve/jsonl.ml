(* Recursive-descent parser for the wire protocol's line-delimited JSON,
   producing the same Telemetry.Json.t the emit side already uses. *)

module Json = Telemetry.Json

exception Bad of int * string

type state = { text : string; mutable pos : int }

let error st msg = raise (Bad (st.pos, msg))

let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> error st (Printf.sprintf "expected %c, found %c" c d)
  | None -> error st (Printf.sprintf "expected %c, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.text
    && String.sub st.text st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

(* Encode one code point as UTF-8 (surrogate pairs are combined by the
   string scanner below before calling this). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> error st "bad \\u escape"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c -> v := (!v * 16) + digit c
    | None -> error st "truncated \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> error st "truncated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 st in
          let cp =
            (* A high surrogate must pair with an immediately following
               \uDClow escape; combine the pair into one code point. *)
            if cp >= 0xd800 && cp <= 0xdbff then begin
              expect st '\\';
              expect st 'u';
              let lo = hex4 st in
              if lo < 0xdc00 || lo > 0xdfff then error st "unpaired surrogate";
              0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
            end
            else cp
          in
          add_utf8 buf cp
        | c -> error st (Printf.sprintf "bad escape \\%c" c));
        loop ())
    | Some c when Char.code c < 0x20 -> error st "raw control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec eat () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      eat ()
    | _ -> ()
  in
  eat ();
  let s = String.sub st.text start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Json.Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Json.Float f
    | None -> error st (Printf.sprintf "bad number %S" s))

(* Deepest array/object nesting a line may carry. Protocol requests nest
   three levels at most; the cap turns a hostile line of a million ['['
   into an immediate typed error instead of seconds of recursion on the
   reader thread. *)
let max_depth = 512

let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | None -> error st "expected a value, found end of input"
  | Some '"' -> Json.String (parse_string st)
  | Some ('{' | '[') when depth >= max_depth ->
    error st (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Json.Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> error st "expected , or } in object"
      in
      Json.Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Json.List []
    end
    else begin
      let rec items acc =
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> error st "expected , or ] in array"
      in
      Json.List (items [])
    end
  | Some 't' -> literal st "true" (Json.Bool true)
  | Some 'f' -> literal st "false" (Json.Bool false)
  | Some 'n' -> literal st "null" Json.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %c" c)

let parse text =
  let st = { text; pos = 0 } in
  match parse_value st 0 with
  | v ->
    skip_ws st;
    if st.pos < String.length text then
      Error (Printf.sprintf "trailing input at offset %d" st.pos)
    else Ok v
  | exception Bad (pos, msg) ->
    Error (Printf.sprintf "at offset %d: %s" pos msg)

let parse_exn text =
  match parse text with Ok v -> v | Error msg -> failwith msg
