"""C4A-Script compiler (functions/c4a_script.py) vs reference
crawl4ai/script/ (c4ai_script.py grammar+emitter, c4a_compile.py
result API, c4a_result.py dataclasses).

The reference parses with lark (not in this container), so the
differential strategy is: (a) JS goldens hand-derived from the
reference emitter — including its dedent-defeated multi-line-insert
behavior, which the goldens pin byte-for-byte; (b) ast/regex pins of
the reference's ERROR_CODES and grammar keyword catalog so a language
change in the reference fails here; (c) the result-API error surface
(codes, suggestions, locations) per scenario."""

import ast
import json
import pathlib
import re

import pytest

from crawl4ai_ray.functions import c4a_script as C
from crawl4ai_ray.functions.c4a_script import (
    C4ACompiler,
    C4AScriptError,
    CompilationResult,
    Compiler,
    ValidationResult,
    compile_string,
)

from _refload import requires_reference

REF_DIR = pathlib.Path("/root/reference/crawl4ai/script")


def js(script: str) -> list:
    res = C4ACompiler.compile(script)
    assert res.success, res.first_error and res.first_error.message
    return res.js_code


def one(script: str) -> str:
    out = js(script)
    assert len(out) == 1, out
    return out[0]


# ---------------------------------------------------------------------------
# JS emission goldens (reference c4ai_script.py:387-617)
# ---------------------------------------------------------------------------


class TestSimpleCommands:
    def test_nav(self):
        assert one("GO https://example.com/a?b=1") == "window.location.href = 'https://example.com/a?b=1';"
        assert one("RELOAD") == "window.location.reload();"
        assert one("BACK") == "window.history.back();"
        assert one("FORWARD") == "window.history.forward();"

    def test_wait_seconds_floatifies(self):
        assert one("WAIT 3") == "await new Promise(r=>setTimeout(r,3.0*1000));"
        assert one("WAIT 0.5") == "await new Promise(r=>setTimeout(r,0.5*1000));"

    def test_wait_selector_with_timeout(self):
        assert one("WAIT `#x` 5") == (
            "await new Promise((res,rej)=>{\n"
            "  const max = 5000, t0 = performance.now();\n"
            "  const id = setInterval(()=>{\n"
            "    if(document.querySelector('#x')){clearInterval(id);res();}\n"
            "    else if(performance.now()-t0>max){clearInterval(id);rej('WAIT selector timeout');}\n"
            "  },100);\n"
            "});"
        )

    def test_wait_text_default_timeout(self):
        assert one('WAIT "Loaded"') == (
            "await new Promise((res,rej)=>{\n"
            "  const max=10000,t0=performance.now();\n"
            "  const id=setInterval(()=>{\n"
            "    if(document.body.innerText.includes(`Loaded`)){clearInterval(id);res();}\n"
            "    else if(performance.now()-t0>max){clearInterval(id);rej('WAIT text timeout');}\n"
            "  },100);\n"
            "});"
        )

    def test_wait_selector_escapes_quotes_and_backslashes(self):
        out = one("WAIT `a[name='x\\y']` 1")
        assert "document.querySelector('a[name=\\'x\\\\y\\']')" in out

    def test_click_selector(self):
        assert one("CLICK `button.submit`") == (
            "(()=>{\n"
            "  const el=document.querySelector('button.submit');\n"
            "  if(el){\n"
            "    el.focus&&el.focus();\n"
            "    el.dispatchEvent(new MouseEvent('click',{bubbles:true,button:0,detail:1}));\n"
            "  }\n"
            "})();"
        )

    def test_click_variants_event_button_detail(self):
        assert "new MouseEvent('dblclick',{bubbles:true,button:0,detail:2})" in one(
            "DOUBLE_CLICK `#a`"
        )
        assert "new MouseEvent('contextmenu',{bubbles:true,button:2,detail:1})" in one(
            "RIGHT_CLICK `#a`"
        )

    def test_click_coords_and_the_reference_quirk(self):
        out = one("CLICK 100 200")
        assert "document.elementFromPoint(100,200)" in out
        assert "new MouseEvent('click',{bubbles:true,button:0,detail:1})" in out
        # reference c4ai_script.py:451 never forwards evt/button/detail
        # on the coords path: DOUBLE_CLICK at coords emits a plain click
        assert one("DOUBLE_CLICK 10 20") == one("CLICK 10 20")
        assert one("RIGHT_CLICK 10 20") == one("CLICK 10 20")

    def test_move_drag(self):
        assert one("MOVE 10 20") == (
            "document.dispatchEvent(new MouseEvent('mousemove',{clientX:10,clientY:20,bubbles:true}));"
        )
        assert one("DRAG 1 2 3 4") == (
            "(()=>{\n"
            "  const s=document.elementFromPoint(1,2);\n"
            "  if(!s) return;\n"
            "  s.dispatchEvent(new MouseEvent('mousedown',{bubbles:true,clientX:1,clientY:2}));\n"
            "  document.dispatchEvent(new MouseEvent('mousemove',{bubbles:true,clientX:3,clientY:4}));\n"
            "  document.dispatchEvent(new MouseEvent('mouseup',  {bubbles:true,clientX:3,clientY:4}));\n"
            "})();"
        )

    def test_scroll(self):
        assert one("SCROLL DOWN") == "window.scrollBy(0,500);"
        assert one("SCROLL UP 100") == "window.scrollBy(0,-100);"
        assert one("SCROLL left 250") == "window.scrollBy(-250,0);"  # DIR is case-insensitive
        assert one("SCROLL RIGHT 7") == "window.scrollBy(7,0);"

    def test_type_clear_set(self):
        assert one('TYPE "hi there"') == (
            "(()=>{\n"
            "  const el=document.activeElement;\n"
            "  if(el){\n"
            "    el.value += 'hi there';\n"
            "    el.dispatchEvent(new Event('input',{bubbles:true}));\n"
            "  }\n"
            "})();"
        )
        assert one("CLEAR `#q`") == (
            "(()=>{\n"
            "  const el=document.querySelector('#q');\n"
            "  if(el && 'value' in el){\n"
            "    el.value = '';\n"
            "    el.dispatchEvent(new Event('input',{bubbles:true}));\n"
            "    el.dispatchEvent(new Event('change',{bubbles:true}));\n"
            "  }\n"
            "})();"
        )
        assert one('SET `#user` "tom"') == (
            "(()=>{\n"
            "  const el=document.querySelector('#user');\n"
            "  if(el && 'value' in el){\n"
            "    el.value = '';\n"
            "    el.focus&&el.focus();\n"
            "    el.value = 'tom';\n"
            "    el.dispatchEvent(new Event('input',{bubbles:true}));\n"
            "    el.dispatchEvent(new Event('change',{bubbles:true}));\n"
            "  }\n"
            "})();"
        )

    def test_keys(self):
        assert one("PRESS Tab") == (
            "document.dispatchEvent(new KeyboardEvent('keydown',{key:'Tab',bubbles:true}));"
            "document.dispatchEvent(new KeyboardEvent('keyup',{key:'Tab',bubbles:true}));"
        )
        assert one("KEY_DOWN Shift") == (
            "document.dispatchEvent(new KeyboardEvent('keydown',{key:'Shift',bubbles:true}));"
        )
        assert one("KEY_UP Shift") == (
            "document.dispatchEvent(new KeyboardEvent('keyup',{key:'Shift',bubbles:true}));"
        )

    def test_eval(self):
        assert one("EVAL `console.log('hi')`") == (
            "(()=>{\n"
            "  try {\n"
            "    console.log('hi');\n"
            "  } catch (e) {\n"
            "    console.error('C4A-Script EVAL error:', e);\n"
            "  }\n"
            "})();"
        )

    def test_comments_emit_nothing(self):
        assert js("# a comment\nRELOAD\n# another") == ["window.location.reload();"]


class TestFlowControl:
    def test_if_exists_single_line_then(self):
        assert one("IF (EXISTS `#cookie`) THEN SCROLL DOWN 100") == (
            "if (!!document.querySelector('#cookie')) {\n"
            "  window.scrollBy(0,100);\n"
            "}"
        )

    def test_if_not_and_js_conditions(self):
        assert one("IF (NOT EXISTS `#x`) THEN RELOAD") == (
            "if (!(!!document.querySelector('#x'))) {\n  window.location.reload();\n}"
        )
        assert one("IF (`window.ok > 1`) THEN BACK") == (
            "if (window.ok > 1) {\n  window.history.back();\n}"
        )

    def test_if_else(self):
        assert one("IF (EXISTS `#a`) THEN RELOAD ELSE BACK") == (
            "if (!!document.querySelector('#a')) {\n"
            "  window.location.reload();\n"
            "} else {\n"
            "  window.history.back();\n"
            "}"
        )

    def test_if_multiline_then_keeps_template_indent(self):
        """A multi-line insert defeats textwrap.dedent in the reference
        emitter (the f-string's 20-column source indentation survives);
        the golden pins that exact byte shape."""
        assert one("IF (EXISTS `#x`) THEN CLICK `#y`") == (
            "if (!!document.querySelector('#x')) {\n"
            "                      (()=>{\n"
            "  const el=document.querySelector('#y');\n"
            "  if(el){\n"
            "    el.focus&&el.focus();\n"
            "    el.dispatchEvent(new MouseEvent('click',{bubbles:true,button:0,detail:1}));\n"
            "  }\n"
            "})();\n"
            "                    }"
        )

    def test_repeat_digit_count(self):
        assert one("REPEAT (SCROLL DOWN 500, 3)") == (
            "for (let _i = 0; _i < 3; _i++) {\n"
            "  window.scrollBy(0,500);\n"
            "}"
        )

    def test_repeat_js_expression_count(self):
        out = one("REPEAT (RELOAD, `window.n`)")
        assert out.startswith("(()=>{")
        assert "const _count = window.n;" in out
        assert "if (typeof _count === 'number')" in out
        assert out.count("window.location.reload();") == 2  # loop + truthy branch

    def test_nested_if(self):
        out = one("IF (EXISTS `#a`) THEN IF (EXISTS `#b`) THEN RELOAD")
        assert out.count("if (") == 2


class TestProcsVarsIncludes:
    DEMO = (
        "# quick sanity demo\n"
        "PROC login\n"
        '  SET `input[name="username"]` $user\n'
        '  SET `input[name="password"]` $pass\n'
        "  CLICK `button.submit`\n"
        "ENDPROC\n"
        "\n"
        'SETVAR user = "tom@crawl4ai.com"\n'
        'SETVAR pass = "hunter2"\n'
        "\n"
        "GO https://example.com/login\n"
        'WAIT `input[name="username"]` 10\n'
        "login\n"
        "WAIT 3\n"
        "EVAL `console.log('logged in')`\n"
    )

    def test_demo_pipeline(self):
        """The reference's own DEMO script (c4ai_script.py:665-681):
        proc inlining + SETVAR substitution + statement count."""
        out = js(self.DEMO)
        assert len(out) == 7  # GO, WAIT, SET, SET, CLICK, WAIT, EVAL
        assert out[0] == "window.location.href = 'https://example.com/login';"
        assert "el.value = 'tom@crawl4ai.com';" in out[2]
        assert "el.value = 'hunter2';" in out[3]
        assert out[5] == "await new Promise(r=>setTimeout(r,3.0*1000));"

    def test_setvar_applies_in_stream_order(self):
        out = js('SETVAR v = "a"\nTYPE $v\nSETVAR v = "b"\nTYPE $v')
        assert "el.value += 'a';" in out[0]
        assert "el.value += 'b';" in out[1]

    def test_unknown_var_left_verbatim(self):
        assert "el.value += '$missing';" in one("TYPE $missing")

    def test_vars_not_substituted_inside_if_branches(self):
        # reference _apply_set_vars touches only top-level TYPE/EVAL/SET
        out = js('SETVAR v = "x"\nIF (EXISTS `#a`) THEN TYPE $v')
        assert "el.value += '$v';" in out[0]

    def test_call_inside_if_inlines_proc(self):
        out = one("PROC p\nRELOAD\nBACK\nENDPROC\nIF (EXISTS `#a`) THEN p")
        assert "window.location.reload();\nwindow.history.back();" in out

    def test_include(self, tmp_path):
        (tmp_path / "lib.c4a").write_text("PROC down\nSCROLL DOWN 50\nENDPROC\n")
        res = C4ACompiler.compile('USE "lib.c4a"\ndown', root=tmp_path)
        assert res.success
        assert res.js_code == ["window.scrollBy(0,50);"]

    def test_circular_include_fails(self, tmp_path):
        (tmp_path / "a.c4a").write_text('USE "a.c4a"\n')
        res = C4ACompiler.compile('USE "a.c4a"', root=tmp_path)
        assert not res.success
        assert "Circular include" in res.first_error.message


# ---------------------------------------------------------------------------
# result-API error surface (reference c4a_compile.py:27-320)
# ---------------------------------------------------------------------------


class TestErrorSurface:
    def test_missing_then_E001(self):
        res = C4ACompiler.compile("IF (EXISTS `#a`) CLICK `#b`")
        assert not res.success
        e = res.first_error
        assert e.code == "E001"
        assert e.message == "Missing 'THEN' keyword after IF condition"
        assert e.line == 1
        assert any("THEN CLICK" in (s.fix or "") for s in e.suggestions)

    def test_missing_paren_E002(self):
        e = C4ACompiler.compile("IF (EXISTS `#a` THEN CLICK `#b`").first_error
        assert e.code == "E002"
        assert e.message == "Missing closing parenthesis ')'"

    def test_missing_comma_E003(self):
        e = C4ACompiler.compile("REPEAT (RELOAD 3)").first_error
        assert e.code == "E003"
        assert e.message == "Missing comma ',' in command"

    def test_missing_endproc_E004(self):
        e = C4ACompiler.compile("PROC foo\nCLICK `#a`").first_error
        assert e.code == "E004"
        assert e.message == "Unexpected end of script"
        assert len(e.suggestions) == 2

    def test_undefined_proc_E005_with_call_site(self):
        e = C4ACompiler.compile("RELOAD\nlogin").first_error
        assert e.code == "E005"
        assert e.message == "Undefined procedure 'login'"
        assert e.line == 2
        assert e.source_line == "login"
        assert "PROC login" in e.suggestions[0].fix

    def test_missing_backticks_E006(self):
        e = C4ACompiler.compile("CLICK button.submit").first_error
        assert e.code == "E006"
        assert e.message == "Selector must be wrapped in backticks"
        # the NAME token stops at '.', so the fix quotes only the
        # matched token — the reference (lark NAME, same regex) ditto
        assert e.suggestions[0].fix == "`button`"

    def test_bad_char_after_click_E006(self):
        e = C4ACompiler.compile("CLICK @btn").first_error
        assert e.code == "E006"
        assert e.suggestions[0].fix == "CLICK `@btn`"

    def test_invalid_char_E999(self):
        e = C4ACompiler.compile("~nonsense").first_error
        assert e.code == "E999"
        assert e.message == "Invalid character at position 1"

    def test_error_location_context(self):
        res = C4ACompiler.compile("RELOAD\nCLICK button\nBACK")
        e = res.first_error
        assert (e.line, e.source_line) == (2, "CLICK button")
        assert e.line_before == "RELOAD"
        assert e.line_after == "BACK"
        d = e.to_dict()
        assert d["location"]["line"] == 2
        assert d["context"]["marker"]["start"] == e.column - 1
        json.loads(e.to_json())

    def test_compile_file_missing_E100(self, tmp_path):
        res = C4ACompiler.compile_file(tmp_path / "nope.c4a")
        assert not res.success
        assert res.first_error.code == "E100"

    def test_compile_file_ok(self, tmp_path):
        p = tmp_path / "s.c4a"
        p.write_text("RELOAD\n")
        res = C4ACompiler.compile_file(p)
        assert res.success and res.js_code == ["window.location.reload();"]

    def test_metadata_and_str(self):
        res = C4ACompiler.compile("RELOAD\nBACK")
        assert res.metadata == {"lineCount": 2, "statementCount": 2}
        assert str(res).startswith("✓")
        bad = C4ACompiler.compile("CLICK button")
        assert str(bad).startswith("✗")
        json.loads(res.to_json())

    def test_validate(self):
        assert C4ACompiler.validate("RELOAD").valid is True
        v = C4ACompiler.validate("CLICK button")
        assert isinstance(v, ValidationResult) and not v.valid
        assert v.first_error.code == "E006"

    def test_list_input(self):
        res = C4ACompiler.compile(["RELOAD", "BACK"])
        assert res.success and len(res.js_code) == 2


class TestLegacyExceptionAPI:
    def test_compile_string_ok(self):
        assert compile_string(["RELOAD"]) == ["window.location.reload();"]

    def test_compile_string_raises_formatted(self):
        with pytest.raises(C4AScriptError) as ei:
            compile_string("IF (EXISTS `#a`) CLICK `#b`")
        err = ei.value
        assert err.message == "Missing 'THEN' keyword after IF condition"
        assert err.line == 1
        assert "C4A-Script Syntax Error" in str(err)
        assert "^" in err.details

    def test_undefined_proc_runtime_error(self):
        with pytest.raises(C4AScriptError) as ei:
            compile_string("login")
        assert ei.value.error_type == "Runtime Error"
        assert "Undefined procedure 'login'" in ei.value.message

    def test_compiler_class_direct(self):
        c = Compiler()
        out = c.compile('SETVAR u = "x"\nTYPE $u')
        assert len(out) == 1 and c.vars == {"u": "x"}


# ---------------------------------------------------------------------------
# reference pins (ast/regex reads — fail if the reference language moves)
# ---------------------------------------------------------------------------


class TestReferencePins:
    @requires_reference
    def test_error_codes_match_reference(self):
        tree = ast.parse((REF_DIR / "c4a_compile.py").read_text())
        ref_codes = None
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ERROR_CODES" for t in node.targets
            ):
                ref_codes = ast.literal_eval(node.value)
        assert ref_codes == C4ACompiler.ERROR_CODES

    @requires_reference
    def test_grammar_keywords_covered(self):
        src = (REF_DIR / "c4ai_script.py").read_text()
        m = re.search(r'GRAMMAR = r"""(.*?)"""', src, re.DOTALL)
        assert m, "reference grammar not found"
        ref_keywords = set(re.findall(r'"([A-Z][A-Z_]*)"', m.group(1)))
        assert ref_keywords <= C._KEYWORDS, ref_keywords - C._KEYWORDS

    @requires_reference
    def test_result_exports_match_reference_all(self):
        src = (REF_DIR / "__init__.py").read_text()
        tree = ast.parse(src)
        ref_all = None
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                ref_all = ast.literal_eval(node.value)
        assert ref_all
        for name in ref_all:
            assert hasattr(C, name), f"missing export {name}"

    def test_top_level_package_exports(self):
        import crawl4ai_ray as cr

        res = cr.c4a_compile("RELOAD")
        assert isinstance(res, CompilationResult) and res.success
        assert cr.c4a_validate("RELOAD").valid
        assert isinstance(cr.c4a_compile_file("/nonexistent.c4a"), CompilationResult)
        assert cr.C4ACompiler is C4ACompiler
        assert cr.ErrorDetail is C.ErrorDetail
